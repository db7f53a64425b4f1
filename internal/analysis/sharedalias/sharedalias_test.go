package sharedalias_test

import (
	"testing"

	"triolet/internal/analysis/analysistest"
	"triolet/internal/analysis/sharedalias"
)

// TestRelinquish proves direct writes, alias writes, append, and copy
// after SendShared/SendHalo/serial.Raw are flagged; fill-then-ship, plain Send,
// and rebinding are not; and a reasoned allow suppresses the documented
// flow-insensitive false positive.
func TestRelinquish(t *testing.T) {
	analysistest.Run(t, sharedalias.Analyzer,
		"testdata/src/sharedalias", "sharedfixture")
}
