// Package hookfire implements the churnvet analyzer that keeps the hook
// plane honest: every call site that appends to the arena adjacency
// outside package graph must be post-dominated by an OnEdge hook fire.
//
// The cut engine (flood), the expansion Tracker and every other hook
// subscriber mirror the model's edge set incrementally; an adjacency
// mutation that skips the hook silently diverges them from the graph —
// exactly the bug class PR 5's stale-tracker negative control simulates at
// runtime. The mutating entry points are graph.AddOutEdge,
// graph.RedirectOutEdge and the bulk wire-fill paths
// (graph.WireSnapshotEdges / WireSnapshotEdgesPar, and the Wire call that
// ends a graph.SnapshotWiring).
//
// For each such call the analyzer walks the enclosing function's
// control-flow graph: every path from the call to the function's exit must
// contain a "hook fire" — any mention of an OnEdge/onEdge identifier (a
// direct call, the conventional `if hooks.OnEdge != nil` guard, or passing
// the hook to a replay helper such as fireEdgeHooks). A function that
// mutates adjacency deliberately without firing hooks carries
// //churnvet:hookexempt <reason>.
//
// Test files and package graph itself (below the hook plane) are exempt.
package hookfire

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"

	"golang.org/x/tools/go/analysis/passes/inspect"

	"github.com/dyngraph/churnnet/internal/lint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "hookfire",
	Doc:      "require adjacency mutations outside package graph to be post-dominated by an OnEdge hook fire",
	URL:      "https://github.com/dyngraph/churnnet/blob/main/DESIGN.md",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      run,
}

var graphpkg string

func init() {
	Analyzer.Flags.StringVar(&graphpkg, "graphpkg", lint.GraphPkgSuffix, "package-path suffix of the arena-graph package")
}

// mutators are the graph methods that create or re-point adjacency.
var mutators = map[string]bool{
	"AddOutEdge":           true,
	"RedirectOutEdge":      true,
	"WireSnapshotEdges":    true,
	"WireSnapshotEdgesPar": true,
	"Wire":                 true, // (*SnapshotWiring).Wire
}

func run(pass *analysis.Pass) (interface{}, error) {
	if lint.PathHasSuffix(pass.Pkg.Path(), graphpkg) {
		return nil, nil // the graph package is below the hook plane
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	dirs := lint.ParseDirectives(pass)

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		call := n.(*ast.CallExpr)
		if lint.IsTestFile(pass, call.Pos()) {
			return true
		}
		name, ok := mutatorCall(pass, call)
		if !ok {
			return true
		}
		g, encl := enclosingCFG(cfgs, stack)
		if encl != nil {
			if _, exempt := dirs.ForFunc(encl, "hookexempt"); exempt {
				return true
			}
		}
		if g == nil {
			pass.Reportf(call.Pos(), "graph.%s outside any analyzable function body must fire OnEdge", name)
			return true
		}
		if !postDominatedByHookFire(g, call) {
			pass.Reportf(call.Pos(), "graph.%s is not followed by an OnEdge hook fire on every path: the cut engine and expansion tracker will silently diverge (fire hooks.OnEdge, or annotate the function //churnvet:hookexempt <reason>)", name)
		}
		return true
	})
	return nil, nil
}

// mutatorCall reports whether call invokes one of the graph mutators, by
// method name and receiver type origin.
func mutatorCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !mutators[fn.Name()] {
		return "", false
	}
	if fn.Pkg() == nil || !lint.PathHasSuffix(fn.Pkg().Path(), graphpkg) {
		return "", false
	}
	return fn.Name(), true
}

// enclosingCFG finds the CFG of the innermost enclosing function literal
// or declaration, plus the enclosing declaration (for exemptions).
func enclosingCFG(cfgs *ctrlflow.CFGs, stack []ast.Node) (*cfg.CFG, *ast.FuncDecl) {
	var decl *ast.FuncDecl
	var g *cfg.CFG
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncLit:
			if g == nil {
				g = cfgs.FuncLit(f)
			}
		case *ast.FuncDecl:
			decl = f
			if g == nil {
				g = cfgs.FuncDecl(f)
			}
			return g, decl
		}
	}
	return g, decl
}

// postDominatedByHookFire reports whether every path from the mutator call
// to the function exit mentions an OnEdge hook.
func postDominatedByHookFire(g *cfg.CFG, call *ast.CallExpr) bool {
	// Locate the block and node index containing the call.
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= call.Pos() && call.End() <= n.End() {
				// Scan the rest of this block first (including the node
				// itself: `fireEdgeHooks(g.Wire...(...), hooks.OnEdge)`
				// style single-statement forms count).
				for _, later := range b.Nodes[i:] {
					if mentionsHook(later) {
						return true
					}
				}
				if len(b.Succs) == 0 {
					return false // block falls off the end unhooked
				}
				seen := make(map[*cfg.Block]bool)
				for _, s := range b.Succs {
					if leakyPath(s, seen) {
						return false
					}
				}
				return true
			}
		}
	}
	// Call not present in the CFG (dead code); nothing to prove.
	return true
}

// leakyPath reports whether some path from b to an exit block contains no
// hook mention.
func leakyPath(b *cfg.Block, seen map[*cfg.Block]bool) bool {
	if seen[b] {
		return false // already being explored or proven safe along this DFS
	}
	seen[b] = true
	for _, n := range b.Nodes {
		if mentionsHook(n) {
			return false // this path fires the hook; stop descending
		}
	}
	if len(b.Succs) == 0 {
		return true // reached exit without a hook fire
	}
	for _, s := range b.Succs {
		if leakyPath(s, seen) {
			return true
		}
	}
	return false
}

// mentionsHook reports whether the node mentions an OnEdge hook: an
// identifier or selector whose name is OnEdge/onEdge (calls, nil-guards,
// and hook-forwarding arguments all qualify).
func mentionsHook(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if strings.EqualFold(id.Name, "onedge") {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
