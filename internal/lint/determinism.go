package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// outputPkgs are the packages whose job is rendering the paper's tables and
// reports; anything they print must be byte-reproducible, so iterating a map
// straight into a writer is a determinism bug there.
var outputPkgs = map[string]bool{
	"report": true,
	"stats":  true,
	"impact": true,
	"avail":  true,
}

// Determinism guards the pipeline's headline property: identical inputs
// produce byte-identical tables at any worker count. It flags wall-clock
// reads (time.Now / time.Since) outside the simulation clock package, draws
// from the global math/rand source (unseeded, nondeterministic across
// processes), and map iteration feeding output in the rendering packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "wall-clock reads, global math/rand, and unsorted map-range output break byte-reproducibility",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if p.Pkg.Name == "simclock" {
		// The simulation clock is the one sanctioned time source.
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(info, n)
				switch {
				case isPkgFunc(fn, "time", "Now"):
					p.Reportf(n.Pos(), "call to time.Now outside simclock: wall-clock reads break run reproducibility (route through the simulation clock, or //lint:allow determinism for intentional wall-time metering)")
				case isPkgFunc(fn, "time", "Since"):
					p.Reportf(n.Pos(), "call to time.Since outside simclock: wall-clock reads break run reproducibility (route through the simulation clock, or //lint:allow determinism for intentional wall-time metering)")
				case globalRandFunc(fn):
					p.Reportf(n.Pos(), "use of the global math/rand source: it is unseeded and nondeterministic across runs; draw from a named internal/randx stream instead")
				}
			case *ast.RangeStmt:
				if outputPkgs[p.Pkg.Name] && mapRangeFeedsOutput(info, n) {
					p.Reportf(n.Pos(), "range over a map feeds writer output: map iteration order is randomized, so rendered bytes differ run to run; collect the keys, sort them, and iterate the sorted slice")
				}
			}
			return true
		})
	}
}

// globalRandFunc reports whether fn is a package-level math/rand (or
// math/rand/v2) function that draws from the shared global source. The
// New* constructors (rand.New, rand.NewSource, rand.NewPCG, ...) build
// explicitly seeded generators and are the sanctioned alternative, so they
// are exempt, as are methods on those seeded values.
func globalRandFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	if strings.HasPrefix(fn.Name(), "New") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// mapRangeFeedsOutput reports whether rs ranges over a map and its body
// contains a direct output call (fmt.Fprint*/Print* or a Write* method).
// The sanctioned pattern — range the map only to collect keys, sort, then
// print from the sorted slice — never prints inside the map range, so it is
// not flagged. Note a sort.* call inside the body does not absolve the
// loop: sorting values cannot fix the key iteration order.
func mapRangeFeedsOutput(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return false
	}
	found := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isOutputCall(info, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// writerMethods are method names treated as output sinks.
var writerMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
}

// isOutputCall reports whether call writes formatted output: any
// fmt.Fprint*/Print* call, or a Write* method on any receiver.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && writerMethods[fn.Name()] {
		return true
	}
	return false
}
