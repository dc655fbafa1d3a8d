package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotMath enforces the locked-snapshot / unlocked-math contract
// of the plugin API (DESIGN.md §10, docs/PLUGINS.md): code holding a
// shard ingest lock — a sync mutex region, or the body of a callback
// passed to DoShard/Do/View — only copies state (O(s) for the top-s
// apps, every retained candidate for Windowed); all query mathematics
// (sorting, top-s selection, cross-shard merging) runs outside every
// lock so a querier never stalls ingest.
//
// Flagged inside locked regions:
//   - sorting calls: sort.Sort/Stable/Slice/SliceStable/Ints/
//     Float64s/Strings and slices.Sort*;
//   - the repo's own query-math entry points: TopSample, TopEntries,
//     and Merge*-named functions in wrs packages.
var SnapshotMath = &Analyzer{
	Name: "snapshotmath",
	Doc:  "forbids sorting/merge query math inside shard-locked regions (locked-snapshot/unlocked-math contract)",
	Run:  runSnapshotMath,
}

// viewMethods are the locked-view primitives: the callback they
// receive runs under a shard's ingest lock.
var viewMethods = map[string]bool{"DoShard": true, "Do": true, "View": true}

func runSnapshotMath(pass *Pass) {
	// Mutex-held regions.
	for _, root := range funcBodies(pass) {
		w := &lockWalker{
			info: pass.Info,
			visit: func(n ast.Node, held lockSet, _ bool) {
				if len(held) == 0 {
					return
				}
				if call, ok := n.(*ast.CallExpr); ok {
					checkHeavyMath(pass, call, "while holding "+held[len(held)-1].key)
				}
			},
		}
		w.walkFunc(root.body)
	}

	// Callbacks passed to the locked-view primitives.
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f == nil || !viewMethods[f.Name()] || !isWrsReceiver(pass.Info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					inspectLockedCallback(pass, lit, f.Name())
				}
			}
			return true
		})
	}
}

// inspectLockedCallback flags heavy math in a locked-view callback
// body (nested function literals are separate goroutine-able values
// and are not part of the locked region).
func inspectLockedCallback(pass *Pass, lit *ast.FuncLit, primitive string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			checkHeavyMath(pass, call, "inside a "+primitive+" callback (runs under the shard ingest lock)")
		}
		return true
	})
}

// isWrsReceiver reports whether the method's receiver is a type
// declared in this module (Do/View/DoShard are common names; only the
// repo's locked-view primitives count).
func isWrsReceiver(info *types.Info, call *ast.CallExpr) bool {
	rt := recvType(info, call)
	if rt == nil {
		return false
	}
	p := typePkgPath(rt)
	return p == "wrs" || strings.HasPrefix(p, "wrs/")
}

// sortFuncs are the O(n log n) entry points of package sort.
var sortFuncs = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
	"Ints": true, "Float64s": true, "Strings": true,
}

func checkHeavyMath(pass *Pass, call *ast.CallExpr, where string) {
	f := calleeFunc(pass.Info, call)
	if f == nil {
		return
	}
	pkg, name := funcPkgPath(f), f.Name()
	switch {
	case pkg == "sort" && sortFuncs[name]:
		pass.Reportf(call.Pos(), "sort.%s %s: snapshot under the lock, sort outside it (locked-snapshot/unlocked-math, DESIGN.md §10)", name, where)
	case pkg == "slices" && strings.HasPrefix(name, "Sort"):
		pass.Reportf(call.Pos(), "slices.%s %s: snapshot under the lock, sort outside it (locked-snapshot/unlocked-math, DESIGN.md §10)", name, where)
	case isWrsPkg(pkg) && (name == "TopSample" || name == "TopEntries" || strings.HasPrefix(name, "Merge")):
		pass.Reportf(call.Pos(), "%s %s: query math (top-s selection / cross-shard merge) runs outside every lock (DESIGN.md §10)", name, where)
	}
}

func isWrsPkg(p string) bool {
	return p == "wrs" || strings.HasPrefix(p, "wrs/")
}
