// Package shardstage implements the churnvet analyzer that enforces the
// staging-buffer discipline inside worker callbacks.
//
// The engine's parallel phases (flood's per-slot-range shard sweeps, the
// tracker's seeding sweep, the bulk wire-fill) run a callback once per worker
// index with a barrier as the only synchronization. The discipline that
// keeps them deterministic AND race-free is: a worker may write only
// through state it owns — state indexed by its own worker index, by a chunk
// it claimed through an atomic counter, or by a job it received from a
// channel. A write through a captured reference that is not derived from
// such a claim is a cross-shard race that `go test -race` only catches when
// a schedule happens to interleave it.
//
// Scope: function literals passed to a worker sweep (a call to
// graph.Shards.ForEachShard — the one fan-out of every sharded pass — or
// forEachWorker; configurable) and function literals
// launched by a `go` statement inside the deterministic packages. Within
// those, the analyzer flags assignments and ++/-- through captured
// variables whose access path involves no claim-derived ("tainted") value.
// Claim sources are the literal's own parameters, sync/atomic method
// results, and channel receives; taint propagates through local
// assignments. Reads are never flagged; method calls are outside the
// analysis (the callee is documented as shard-confined at its definition).
//
// Justified exceptions carry //churnvet:shardexempt <reason> on the write
// (same line or line above) or on the enclosing function declaration.
package shardstage

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"github.com/dyngraph/churnnet/internal/lint"
)

var Analyzer = &analysis.Analyzer{
	Name:     "shardstage",
	Doc:      "flag unowned writes through captured references inside worker-sweep callbacks",
	URL:      "https://github.com/dyngraph/churnnet/blob/main/DESIGN.md",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var (
	detpkgs    string
	sweepfuncs string
)

func init() {
	Analyzer.Flags.StringVar(&detpkgs, "detpkgs", "", "comma-separated package-path suffixes overriding the deterministic-package roster")
	Analyzer.Flags.StringVar(&sweepfuncs, "sweepfuncs", "forEachWorker,ForEachShard", "comma-separated names of worker-sweep functions whose func-literal arguments are shard callbacks")
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !lint.IsDeterministicPkg(pass.Pkg.Path(), detpkgs) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := lint.ParseDirectives(pass)

	sweeps := make(map[string]bool)
	for _, s := range strings.Split(sweepfuncs, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sweeps[s] = true
		}
	}

	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil), (*ast.GoStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		var lit *ast.FuncLit
		switch st := n.(type) {
		case *ast.GoStmt:
			if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
				lit = fl
			}
		case *ast.CallExpr:
			if !isSweepCall(st, sweeps) {
				return true
			}
			for _, arg := range st.Args {
				if fl, ok := arg.(*ast.FuncLit); ok {
					lit = fl
				}
			}
		}
		if lit == nil || lint.IsTestFile(pass, lit.Pos()) {
			return true
		}
		checkCallback(pass, dirs, lit, enclosingFuncDecl(stack))
		return true
	})
	return nil, nil
}

func isSweepCall(call *ast.CallExpr, sweeps map[string]bool) bool {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return sweeps[f.Name]
	case *ast.SelectorExpr:
		return sweeps[f.Sel.Name]
	}
	return false
}

func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			return d
		}
	}
	return nil
}

// checkCallback runs the taint pass over one worker callback literal.
func checkCallback(pass *analysis.Pass, dirs *lint.FileDirectives, lit *ast.FuncLit, encl *ast.FuncDecl) {
	if encl != nil {
		if _, ok := dirs.ForFunc(encl, "shardexempt"); ok {
			return
		}
	}
	c := &callback{pass: pass, lit: lit, tainted: map[types.Object]bool{}, local: map[types.Object]bool{}}

	// Claim seeds: the literal's parameters (worker index, claimed job).
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					c.tainted[obj] = true
				}
			}
		}
	}
	// Everything declared inside the literal is local (writes to it are
	// worker-private); locals *derived from* claims become tainted below.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				c.local[obj] = true
			}
		}
		return true
	})

	// Propagate taint through local assignments to a fixed point.
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, l := range st.Lhs {
					id, ok := ast.Unparen(l).(*ast.Ident)
					if !ok {
						continue
					}
					obj := c.pass.TypesInfo.ObjectOf(id)
					if obj == nil || c.tainted[obj] || !c.local[obj] {
						continue
					}
					var rhs ast.Expr
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					} else if len(st.Rhs) == 1 {
						rhs = st.Rhs[0]
					}
					if rhs != nil && c.claimDerived(rhs) {
						c.tainted[obj] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				// `for i := range ch` over a channel claims i.
				if t := c.pass.TypesInfo.TypeOf(st.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						for _, e := range []ast.Expr{st.Key, st.Value} {
							if id, ok := e.(*ast.Ident); ok {
								if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && !c.tainted[obj] {
									c.tainted[obj] = true
									changed = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}

	// Flag unowned writes.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return true // nested literals inherit the same capture analysis
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, l := range st.Lhs {
				c.checkWrite(dirs, l)
			}
		case *ast.IncDecStmt:
			c.checkWrite(dirs, st.X)
		}
		return true
	})
}

type callback struct {
	pass    *analysis.Pass
	lit     *ast.FuncLit
	tainted map[types.Object]bool // claim-derived objects
	local   map[types.Object]bool // declared inside the literal
}

// claimDerived reports whether the expression's value derives from a claim:
// it mentions a tainted object, an atomic counter method, or a channel
// receive.
func (c *callback) claimDerived(e ast.Expr) bool {
	derived := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := c.pass.TypesInfo.ObjectOf(x); obj != nil && c.tainted[obj] {
				derived = true
			}
		case *ast.CallExpr:
			if c.isAtomicClaim(x) {
				derived = true
			}
		case *ast.UnaryExpr:
			if x.Op.String() == "<-" {
				derived = true
			}
		}
		return !derived
	})
	return derived
}

// isAtomicClaim recognizes method calls on sync/atomic values (Add, Load,
// Swap, CompareAndSwap, ...): an atomic fetch is an exclusive claim.
func (c *callback) isAtomicClaim(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "sync/atomic" {
		return true
	}
	// Methods on named types from sync/atomic (atomic.Int64 fields etc.)
	// have Pkg() == "sync/atomic" already; nothing more to do.
	return false
}

// checkWrite flags a write whose access path never passes through a claim.
func (c *callback) checkWrite(dirs *lint.FileDirectives, l ast.Expr) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && (c.local[obj] || c.tainted[obj]) {
			return // worker-private or claim-derived variable
		}
		// Fall through: captured plain variable — always unowned.
	} else if c.pathOwned(l) {
		return
	}
	if _, ok := dirs.At(l.Pos(), "shardexempt"); ok {
		return
	}
	c.pass.Reportf(l.Pos(), "write to captured %s inside a worker callback is not derived from the worker's own shard or claimed chunk: stage into worker-indexed buffers and merge after the barrier (or annotate //churnvet:shardexempt <reason>)",
		exprString(l))
}

// pathOwned reports whether a write path (index/selector chain) involves a
// claim-derived value anywhere — base or any index.
func (c *callback) pathOwned(l ast.Expr) bool {
	switch e := ast.Unparen(l).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(e)
		return obj != nil && (c.local[obj] || c.tainted[obj])
	case *ast.IndexExpr:
		return c.claimDerived(e.Index) || c.pathOwned(e.X) || c.claimDerived(e.X)
	case *ast.SelectorExpr:
		return c.pathOwned(e.X) || c.claimDerived(e.X)
	case *ast.StarExpr:
		return c.pathOwned(e.X) || c.claimDerived(e.X)
	}
	return false
}

func exprString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	}
	return "expression"
}
