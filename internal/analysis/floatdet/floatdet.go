// Package floatdet flags nondeterministic floating-point accumulation in
// distributed paths: a plain `s += x` (or `s = s + x`) loop whose partial
// order depends on how work was split across nodes produces results that
// differ by node count — exactly the bug class the diffcheck oracle
// flushed out of the farm reduction and that fixed core.DetChunk chunks
// combined by core.CombineTree exist to prevent. The scope is
// the code that runs under varying decompositions: internal/cluster,
// internal/diffcheck, and each parboil benchmark's dist*.go.
//
// Accumulations whose order is fixed regardless of decomposition (a loop
// over an already-deterministically-merged slice, the deliberate legacy
// reproduction in the oracle) carry //lint:allow floatdet <reason>.
package floatdet

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"triolet/internal/analysis"
)

// ScopePkgs are package paths whose every file is in scope.
var ScopePkgs = map[string]bool{
	"triolet/internal/cluster":   true,
	"triolet/internal/diffcheck": true,
}

// ScopeFilePrefix puts files matching dist*.go under any package below
// this prefix in scope: the hand-rolled per-benchmark decompositions.
const ScopeFilePrefix = "triolet/internal/parboil/"

// Analyzer is the floatdet pass.
var Analyzer = &analysis.Analyzer{
	Name: "floatdet",
	Doc: "float accumulation loops in distributed paths that bypass the " +
		"deterministic reductions (core.DetChunk chunks combined by core.CombineTree)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	wholePkg := ScopePkgs[pass.PkgPath]
	distFiles := strings.HasPrefix(pass.PkgPath, ScopeFilePrefix)
	if !wholePkg && !distFiles {
		return nil
	}
	for _, f := range pass.Files {
		if !wholePkg {
			base := filepath.Base(pass.Fset.Position(f.FileStart).Filename)
			if !strings.HasPrefix(base, "dist") {
				continue
			}
		}
		checkFile(pass, f)
	}
	return nil
}

// checkFile flags float compound accumulation inside loop bodies.
func checkFile(pass *analysis.Pass, f *ast.File) {
	// Collect loop-body position ranges, then test each assignment for
	// enclosure — simpler and harder to get wrong than depth bookkeeping
	// through Inspect's anonymous pops.
	type span struct{ lo, hi token.Pos }
	var loops []span
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, s := range loops {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}

	ast.Inspect(f, func(node ast.Node) bool {
		n, ok := node.(*ast.AssignStmt)
		if !ok || !inLoop(n.Pos()) {
			return true
		}
		report := func(lhs ast.Expr) {
			if t := pass.TypesInfo.TypeOf(lhs); t != nil && analysis.IsFloat(t) {
				pass.Reportf(lhs.Pos(),
					"%s float accumulation in a distributed path: partial order follows the "+
						"decomposition, so results vary by node count — fold through "+
						"fixed core.DetChunk chunks combined by core.CombineTree instead", opName(n.Tok))
			}
		}
		switch n.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			for _, lhs := range n.Lhs {
				report(lhs)
			}
		case token.ASSIGN:
			// s = s + x / s = x + s: the spelled-out compound form.
			for i, lhs := range n.Lhs {
				if i < len(n.Rhs) && isSelfAdd(lhs, n.Rhs[i]) {
					report(lhs)
				}
			}
		}
		return true
	})
}

// isSelfAdd reports whether rhs is `lhs + x` or `x + lhs` (or the `-`
// variants) for a structurally identical lhs identifier chain.
func isSelfAdd(lhs, rhs ast.Expr) bool {
	b, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok || (b.Op != token.ADD && b.Op != token.SUB) {
		return false
	}
	return sameExpr(lhs, b.X) || (b.Op == token.ADD && sameExpr(lhs, b.Y))
}

// sameExpr compares simple identifier/selector/index chains structurally.
func sameExpr(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameExpr(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(x.X, y.X) && sameExpr(x.Index, y.Index)
	}
	return false
}

func opName(tok token.Token) string {
	if tok == token.SUB_ASSIGN {
		return "-="
	}
	return "+="
}
