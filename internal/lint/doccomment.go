package lint

import (
	"go/ast"
	"strings"
)

// docExcluded lists the packages exempt from doc-comment coverage, each
// with its reason. Everything else under internal/... and cmd/... is held
// to the rule by default, so a new package is covered the day it lands;
// shrinking this list is the way to widen coverage further.
var docExcluded = map[string]string{
	"gpuresilience/internal/lint": "the linter's own internals; its exported surface is the Analyzer registry",
}

// docCovered reports whether the package is held to doc-comment coverage:
// every module package under internal/ or cmd/ that is not explicitly
// excluded. The fixture/ prefix is LoadDir's synthetic import path for
// testdata packages, covered so the analyzer's own fixtures run.
func docCovered(importPath string) bool {
	if _, excluded := docExcluded[importPath]; excluded {
		return false
	}
	return strings.HasPrefix(importPath, "gpuresilience/internal/") ||
		strings.HasPrefix(importPath, "gpuresilience/cmd/") ||
		strings.HasPrefix(importPath, "fixture/")
}

// DocComment flags exported identifiers — functions, methods, types,
// package-level vars/consts, and exported struct fields — that carry no doc
// comment, in every internal/ and cmd/ package not explicitly excluded.
var DocComment = &Analyzer{
	Name: "doccomment",
	Doc:  "exported identifiers in internal/... and cmd/... must carry doc comments",
	Run:  runDocComment,
}

func runDocComment(p *Pass) {
	if !docCovered(p.Pkg.ImportPath) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					p.Reportf(d.Name.Pos(), "exported %s %s is missing a doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDeclDocs(p, d)
			}
		}
	}
}

// checkGenDeclDocs flags undocumented exported specs in a type/var/const
// declaration. A doc comment on the enclosing group counts for its members
// (the conventional style for const blocks), as does a trailing line
// comment; exported struct fields are checked the same way.
func checkGenDeclDocs(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
				p.Reportf(s.Name.Pos(), "exported type %s is missing a doc comment", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				checkFieldDocs(p, s.Name.Name, st)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && s.Doc == nil && s.Comment == nil && d.Doc == nil {
					p.Reportf(name.Pos(), "exported value %s is missing a doc comment", name.Name)
				}
			}
		}
	}
}

// checkFieldDocs flags undocumented exported fields of an exported
// struct type. Embedded fields are skipped — their documentation lives on
// the embedded type.
func checkFieldDocs(p *Pass, typeName string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				p.Reportf(name.Pos(), "exported field %s.%s is missing a doc comment", typeName, name.Name)
			}
		}
	}
}
