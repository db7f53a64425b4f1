// Package analysis is a self-contained static-analysis framework
// mirroring the golang.org/x/tools/go/analysis API surface this module
// cannot depend on (the repo is deliberately dependency-free). It exists
// to turn the runtime's prose contracts — kernels are pure, time flows
// through the injected transport.Clock, SendShared relinquishes the
// buffer, message tags are named and unique, distributed float folds go
// through core's deterministic reductions — into machine-checked
// invariants enforced by cmd/triolet-lint and the CI lint-gate.
//
// The framework loads and type-checks packages with nothing but the
// standard library: module packages are resolved by walking the module
// tree, the standard library is type-checked from GOROOT source via
// go/importer's "source" compiler, so the whole suite runs offline and
// hermetically inside the repo's toolchain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one lint pass: a named, documented checker run over
// a type-checked package. The shape deliberately matches
// golang.org/x/tools/go/analysis.Analyzer so the passes could be ported
// to the upstream driver verbatim if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> <reason> suppression comments.
	Name string
	// Doc is the contract the analyzer enforces, shown by -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax trees (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the package's import path within the module (or the
	// fixture-relative path under analysistest).
	PkgPath string
	// TypesInfo holds the type-checker's syntax→object maps.
	TypesInfo *types.Info
	// report receives diagnostics; the driver applies suppression.
	report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report emits a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// CalleeFunc resolves the function or method object a call invokes, when
// it is statically known (package function, method, or local func value
// declaration it does not chase).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
