package parboil_test

import (
	"bytes"
	"testing"

	"triolet/internal/cluster"
	"triolet/internal/domain"
	"triolet/internal/parboil/cutcp"
	"triolet/internal/parboil/mriq"
	"triolet/internal/parboil/sgemm"
	"triolet/internal/parboil/tpacf"
	"triolet/internal/serial"
)

// TestTrioletLeavesInputIntact runs every port's distributed skeleton on one
// and three nodes and compares the input, bit for bit, with its encoding
// taken before the run. The root's kernel reads its slice and aux by
// reference, not through the codec, so a kernel that wrote either would
// change the caller's data here.
func TestTrioletLeavesInputIntact(t *testing.T) {
	f32, mat := serial.F32s(), serial.Matrix[float32]()
	cu := cutcp.Gen(120, domain.Dim3{D: 10, H: 12, W: 11}, 0.5, 1.6, 7)
	mq := mriq.Gen(200, 48, 3)
	sg := sgemm.Gen(24, 16, 20, 5)
	tp := tpacf.Gen(40, 4, 10, 9)
	ports := []struct {
		name string
		bits func(w *serial.Writer)
		run  func(*cluster.Session) error
	}{
		{"cutcp", func(w *serial.Writer) {
			serial.Records[cutcp.Atom, float32]().Encode(w, cu.Atoms)
		}, func(s *cluster.Session) error { _, err := cutcp.Triolet(s, cu); return err }},
		{"mriq", func(w *serial.Writer) {
			for _, xs := range [][]float32{mq.X, mq.Y, mq.Z, mq.KX, mq.KY, mq.KZ, mq.PhiMag} {
				f32.Encode(w, xs)
			}
		}, func(s *cluster.Session) error { _, err := mriq.Triolet(s, mq); return err }},
		{"sgemm", func(w *serial.Writer) {
			mat.Encode(w, sg.A)
			mat.Encode(w, sg.B)
		}, func(s *cluster.Session) error { _, err := sgemm.Triolet(s, sg); return err }},
		{"tpacf", func(w *serial.Writer) {
			points := serial.Records[tpacf.Point, float32]()
			points.Encode(w, tp.Obs)
			for _, set := range tp.Rands {
				points.Encode(w, set)
			}
			f32.Encode(w, tp.Binb)
		}, func(s *cluster.Session) error { _, err := tpacf.Triolet(s, tp); return err }},
	}
	snapshot := func(bits func(*serial.Writer)) []byte {
		w := serial.NewWriter(0)
		bits(w)
		return w.Bytes()
	}
	for _, nodes := range []int{1, 3} {
		for _, p := range ports {
			before := snapshot(p.bits)
			if _, err := cluster.Run(cluster.Config{Nodes: nodes, CoresPerNode: 2}, p.run); err != nil {
				t.Fatalf("%s on %d nodes: %v", p.name, nodes, err)
			}
			if !bytes.Equal(snapshot(p.bits), before) {
				t.Errorf("%s on %d nodes changed its input", p.name, nodes)
			}
		}
	}
}
