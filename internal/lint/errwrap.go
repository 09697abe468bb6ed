package lint

import (
	"go/ast"
	"go/constant"
)

// ErrWrap enforces error-chain preservation: a fmt.Errorf that formats an
// error-typed argument must use %w, so callers can errors.Is/As through the
// wrap. Formatting an error with %v (or %s) flattens it to text and silently
// breaks typed-error handling like the lenient reader's *BudgetError checks.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf with an error-typed argument must wrap it with %w",
	Run:  runErrWrap,
}

func runErrWrap(p *Pass) {
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 || call.Ellipsis.IsValid() {
				return true
			}
			tv, ok := info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			verbs, ok := parseVerbs(constant.StringVal(tv.Value))
			if !ok {
				return true
			}
			for _, v := range verbs {
				arg := 1 + v.argIndex
				if v.verb == 'w' || arg >= len(call.Args) {
					continue
				}
				if implementsError(info.TypeOf(call.Args[arg])) {
					p.Reportf(call.Args[arg].Pos(),
						"fmt.Errorf formats an error-typed argument with %%%c; use %%w so callers can errors.Is/As through the wrap", v.verb)
				}
			}
			return true
		})
	}
}

// verb is one format directive and the argument index it consumes.
type verb struct {
	verb     byte
	argIndex int
}

// parseVerbs extracts the verbs of a fmt format string and the argument
// each consumes. It returns ok=false for formats it cannot reason about
// (explicit argument indexes like %[1]v).
func parseVerbs(format string) ([]verb, bool) {
	var verbs []verb
	arg := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// Flags, width, and precision; a '*' consumes an argument.
		for ; i < len(format); i++ {
			c := format[i]
			if c == '*' {
				arg++
				continue
			}
			if c == '[' {
				return nil, false // explicit argument index: bail out
			}
			if c == '#' || c == '+' || c == '-' || c == ' ' || c == '0' ||
				c == '.' || (c >= '1' && c <= '9') {
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue // literal %%
		}
		verbs = append(verbs, verb{verb: format[i], argIndex: arg})
		arg++
	}
	return verbs, true
}
