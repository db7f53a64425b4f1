// Package kernelpure enforces the determinism contract on user kernels —
// the invariant the whole system rests on (PPoPP 2014 §2: skeletons are
// safe to parallelize and distribute because user code is pure) and the
// one the diffcheck oracle silently assumes when it demands bit-identical
// results across execution modes.
//
// A function literal is a kernel when it is (a) registered through
// cluster.RegisterFarm, (b) converted to cluster.FarmFn, or (c) passed to
// any exported entrypoint of the iter or core skeleton packages (Map,
// Filter, Reduce, ZipWith, SumLocal, NewMapReduce, …). Inside a
// kernel the pass flags the four impurity classes that break cross-mode
// determinism:
//
//   - writes to variables captured from the enclosing scope (kernels may
//     run concurrently, on another node, or twice after a fault replay);
//   - calls to the unseeded global math/rand source;
//   - wall-clock reads (time.Now/Since/Until);
//   - ranging over a map (iteration order differs per run and per node).
//
// A farm kernel must not write its task (an element store, a copy into it,
// a store through a slice of it) either: the task is a read-only view of the
// frame that delivered it (DESIGN.md §11). Deliberate exceptions carry
// //lint:allow kernelpure <reason>.
package kernelpure

import (
	"go/ast"
	"go/token"
	"go/types"

	"triolet/internal/analysis"
)

// KernelPkgs are the skeleton packages whose exported func-taking
// entrypoints put a function-literal argument in kernel position.
var KernelPkgs = map[string]bool{
	"triolet/internal/iter": true,
	"triolet/internal/core": true,
}

const (
	clusterPkg   = "triolet/internal/cluster"
	registerFarm = "RegisterFarm"
	farmFnType   = "FarmFn"
)

const taskWrite = "farm kernel writes its task, a read-only view of the frame that delivered it; copy it first"

// Analyzer is the kernelpure pass.
var Analyzer = &analysis.Analyzer{
	Name: "kernelpure",
	Doc: "impure skeleton kernels: captured-variable writes, unseeded math/rand, " +
		"wall-clock reads, and map iteration inside farm/pipeline kernels; writes to a farm kernel's task",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// The skeleton packages are the trusted implementation: their own
	// closures (block drivers, accumulator plumbing) uphold determinism by
	// construction and are proven by the diffcheck oracle. The purity
	// contract binds the user side of the API boundary.
	if KernelPkgs[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lits, farm := kernelLits(pass, call)
			for _, lit := range lits {
				checkKernel(pass, lit, farm)
			}
			return true
		})
	}
	return nil
}

// kernelLits returns the function literals call places in kernel position,
// and whether they are farm kernels.
func kernelLits(pass *analysis.Pass, call *ast.CallExpr) ([]*ast.FuncLit, bool) {
	info := pass.TypesInfo

	// Conversion to cluster.FarmFn: FarmFn(func(...){...}).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if named, ok := tv.Type.(*types.Named); ok &&
			named.Obj().Name() == farmFnType && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == clusterPkg && len(call.Args) == 1 {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
				return []*ast.FuncLit{lit}, true
			}
		}
		return nil, false
	}

	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	pkg := fn.Pkg().Path()
	kernelCall := pkg == clusterPkg && fn.Name() == registerFarm ||
		KernelPkgs[pkg] && fn.Exported()
	// Inside the skeleton packages themselves every internal helper that
	// forwards a kernel takes it as a func-typed argument too; the
	// exported-entrypoint rule at the boundary is what user code sees.
	if !kernelCall {
		return nil, false
	}
	var lits []*ast.FuncLit
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	return lits, pkg == clusterPkg
}

// checkKernel applies the four purity checks to one kernel body, and the
// task check to a farm kernel's.
func checkKernel(pass *analysis.Pass, lit *ast.FuncLit, farm bool) {
	info := pass.TypesInfo
	inKernel := func(pos token.Pos) bool { return lit.Pos() <= pos && pos <= lit.End() }
	// view holds a farm kernel's task and every variable taken of it.
	view, params := map[types.Object]bool{}, lit.Type.Params.List
	if names := params[len(params)-1].Names; farm && len(names) > 0 {
		view[info.Defs[names[len(names)-1]]] = true
	}
	inView := func(e ast.Expr) bool { return view[info.ObjectOf(analysis.BaseIdent(e))] }

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); !ok && inView(lhs) {
					pass.Report(lhs.Pos(), taskWrite)
				} else if ok && id.Name != "_" && len(n.Rhs) == len(n.Lhs) && inView(n.Rhs[i]) {
					view[info.ObjectOf(id)] = true // or a byte of it: harmless, a byte is only written as an Ident
				}
			}
			if n.Tok == token.DEFINE {
				return true // := declares locals; shadowed reuse stays in scope
			}
			for _, lhs := range n.Lhs {
				reportCapturedWrite(pass, lhs, inKernel)
			}
		case *ast.IncDecStmt:
			if _, ok := n.X.(*ast.Ident); !ok && inView(n.X) {
				pass.Report(n.Pos(), taskWrite)
			}
			reportCapturedWrite(pass, n.X, inKernel)
		case *ast.CallExpr:
			if b, ok := info.Uses[analysis.BaseIdent(n.Fun)].(*types.Builtin); ok && b.Name() == "copy" && inView(n.Args[0]) {
				pass.Report(n.Pos(), taskWrite)
			}
			if name, ok := analysis.WallClockCall(info, n); ok &&
				(name == "Now" || name == "Since" || name == "Until") {
				pass.Reportf(n.Pos(),
					"kernel reads the wall clock (time.%s); kernels must be deterministic — "+
						"pass time in as task data if it is part of the computation", name)
			}
			if fn := analysis.CalleeFunc(info, n); fn != nil && fn.Pkg() != nil {
				p := fn.Pkg().Path()
				if (p == "math/rand" || p == "math/rand/v2") &&
					fn.Type().(*types.Signature).Recv() == nil &&
					fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewPCG" {
					pass.Reportf(n.Pos(),
						"kernel draws from the global %s source (rand.%s); seed a local "+
							"rand.New(rand.NewSource(taskSeed)) so replays and reassignments reproduce",
						p, fn.Name())
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Report(n.Pos(),
						"kernel ranges over a map: iteration order is nondeterministic across "+
							"runs and nodes; iterate a sorted key slice instead")
				}
			}
		}
		return true
	})
}

// reportCapturedWrite flags an assignment target rooted at a variable
// declared outside the kernel literal.
func reportCapturedWrite(pass *analysis.Pass, lhs ast.Expr, inKernel func(token.Pos) bool) {
	id := analysis.BaseIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || obj.IsField() {
		return
	}
	if inKernel(obj.Pos()) {
		return
	}
	pass.Reportf(lhs.Pos(),
		"kernel writes captured variable %q (declared outside the kernel); kernels may run "+
			"concurrently, remotely, or twice under fault replay — return the value instead",
		id.Name)
}
