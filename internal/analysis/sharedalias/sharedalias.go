// Package sharedalias enforces the zero-copy relinquish contract from the
// wire path (DESIGN.md §11): a buffer handed to SendShared, SendHalo,
// SendBeat or SendFrame — or viewed as wire bytes by serial.Raw — belongs to
// the fabric afterwards. On the
// in-process fabric the receiver aliases the sender's backing array, so a
// later write by the sender is a silent cross-rank data race that no
// copy-based test will catch.
//
// The pass is intraprocedural and flow-insensitive by position: within
// one function, once a buffer is relinquished every later statement that
// writes it (element store, re-slice-and-store through an alias, append,
// copy-into) is flagged. Writes that are provably sequenced before the
// send but appear later in the source must be restructured or carry
// //lint:allow sharedalias <reason>.
package sharedalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"triolet/internal/analysis"
)

// Analyzer is the sharedalias pass.
var Analyzer = &analysis.Analyzer{
	Name: "sharedalias",
	Doc: "writes to a buffer after it was relinquished to SendShared, " +
		"SendHalo, SendBeat or SendFrame, or aliased as wire bytes by serial.Raw",
	Run: run,
}

const serialPkg = "triolet/internal/serial"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, n.Body)
				}
				return false // literals inside are scanned with their function
			case *ast.FuncLit:
				// Top-level literals (package-level var initializers).
				checkBody(pass, n.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// mark records where a variable was relinquished (or aliased from a
// relinquished variable).
type mark struct {
	pos token.Pos
	via string // the relinquishing call ("SendShared", …, "serial.Raw"), or the alias source
}

// checkBody runs the relinquish-then-write check over one function body,
// including nested literals (a deferred or spawned closure writing the
// buffer is still a write after the send).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	marks := map[*types.Var]mark{}

	// Pass 1: collect relinquish events and propagate through aliases.
	// Two sweeps reach a fixpoint for the forward-only chains that occur
	// in practice (alias taken after the mark it inherits).
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if v, via, ok := relinquished(info, n); ok {
					if _, dup := marks[v]; !dup {
						marks[v] = mark{pos: n.Pos(), via: via}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					src := analysis.BaseIdent(rhs)
					if src == nil {
						continue
					}
					sv, ok := info.Uses[src].(*types.Var)
					if !ok {
						continue
					}
					m, ok := marks[sv]
					if !ok || n.Pos() < m.pos {
						continue
					}
					dst := analysis.BaseIdent(n.Lhs[i])
					if dst == nil || dst.Name == "_" {
						continue
					}
					if dv := objOf(info, dst); dv != nil {
						if _, dup := marks[dv]; !dup {
							marks[dv] = mark{pos: m.pos, via: m.via}
						}
					}
				}
			}
			return true
		})
	}
	if len(marks) == 0 {
		return
	}

	// Pass 2: flag writes after the mark.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, rebind := ast.Unparen(lhs).(*ast.Ident); rebind {
					// Rebinding the variable to a fresh slice is safe; the
					// relinquished backing array is untouched. Writes through
					// a stale re-slice of it are caught via the alias marks.
					continue
				}
				if id := analysis.BaseIdent(lhs); id != nil {
					reportWrite(pass, marks, id, lhs.Pos())
				}
			}
		case *ast.IncDecStmt:
			if id := analysis.BaseIdent(n.X); id != nil {
				reportWrite(pass, marks, id, n.Pos())
			}
		case *ast.CallExpr:
			// copy(relinquished, …) and append(relinquished, …) write the
			// backing array even when the result is discarded or stored
			// elsewhere.
			if id, ok := builtinTarget(info, n); ok {
				reportWrite(pass, marks, id, n.Pos())
			}
		}
		return true
	})
}

// relinquished reports whether call hands a buffer to the fabric, and
// which variable it is rooted at.
func relinquished(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
	if len(call.Args) == 0 {
		return nil, "", false
	}
	var arg ast.Expr
	var via string
	if fn := analysis.CalleeFunc(info, call); fn != nil {
		switch {
		case fn.Name() == "SendShared" || fn.Name() == "SendHalo" || fn.Name() == "SendBeat" || fn.Name() == "SendFrame":
			arg, via = call.Args[len(call.Args)-1], fn.Name()
		case fn.Name() == "Raw" && fn.Pkg() != nil && fn.Pkg().Path() == serialPkg:
			arg, via = call.Args[0], "serial.Raw"
		}
	}
	if arg == nil {
		return nil, "", false
	}
	id := analysis.BaseIdent(arg)
	if id == nil {
		return nil, "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil, "", false
	}
	return v, via, true
}

// builtinTarget returns the base identifier a copy/append builtin call
// writes through, when its destination is identifier-rooted.
func builtinTarget(info *types.Info, call *ast.CallExpr) (*ast.Ident, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || (b.Name() != "copy" && b.Name() != "append") {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	dst := analysis.BaseIdent(call.Args[0])
	if dst == nil {
		return nil, false
	}
	return dst, true
}

func reportWrite(pass *analysis.Pass, marks map[*types.Var]mark, id *ast.Ident, at token.Pos) {
	v := objOf(pass.TypesInfo, id)
	if v == nil {
		return
	}
	m, ok := marks[v]
	if !ok || at <= m.pos {
		return
	}
	pass.Reportf(at,
		"%q is written after being relinquished to %s; the receiver may alias this backing "+
			"array — allocate a fresh buffer or move the write before the send",
		id.Name, m.via)
}

// objOf resolves an identifier to its variable object whether the site is
// a use or a definition.
func objOf(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}
