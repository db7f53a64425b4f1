package jobs

import (
	"fmt"
	"hash/crc32"
	"time"

	"triolet/internal/cluster"
	"triolet/internal/serial"
)

// Registry record payloads. The checkpoint store frames and checksums each
// record; these encodings are only the payload bodies. Both carry a leading
// version byte so a future service can read an old registry.
//
//	spec (KindJobSpec):
//	  U8(version=2) ‖ String(kernel) ‖ U32(weight) ‖ U32(maxAttempts) ‖
//	  U32(retryBudget) ‖ U64(taskTimeout ns) ‖ U64(byteBudget) ‖
//	  U32(numTasks) ‖ RawBytes(task₀) … RawBytes(taskₙ₋₁)
//
//	(version 1 is the same layout without the byteBudget field; decoding
//	still accepts it, with an unlimited budget)
//
//	summary (KindJobDone):
//	  U8(version=1) ‖ U8(state) ‖ U32(completed) ‖ U32(failed) ‖
//	  U32(retriesUsed) ‖ U64(taskSeconds ns) ‖ U32(crc32 of results)
//
// The summary's CRC folds every completed task's result (in task order)
// so a compacted registry still lets an auditor check a re-run against
// the original results without storing them.

const (
	registryVersion = 2
	// registrySpecV1 is the pre-quota spec layout, still readable.
	registrySpecV1 = 1
)

// encodeSpec serializes a (defaulted, validated) spec for its admission
// record. The job name is not in the payload: the record's Job field
// carries it.
func encodeSpec(sp Spec) []byte {
	size := len(sp.Kernel) + 40
	for _, t := range sp.Tasks {
		size += len(t) + 8
	}
	w := serial.NewWriter(size)
	w.U8(registryVersion)
	w.String(sp.Kernel)
	w.U32(uint32(sp.Weight))
	w.U32(uint32(sp.MaxTaskAttempts))
	w.U32(uint32(sp.RetryBudget))
	w.U64(uint64(sp.TaskTimeout))
	w.U64(uint64(sp.ByteBudget))
	w.U32(uint32(len(sp.Tasks)))
	for _, t := range sp.Tasks {
		w.RawBytes(t)
	}
	return w.Bytes()
}

// decodeSpec parses an admission record payload back into a Spec, which
// must validate like the one admitted.
func decodeSpec(name string, payload []byte) (Spec, error) {
	r := serial.NewReader(payload)
	v := r.U8()
	if v != registryVersion && v != registrySpecV1 {
		return Spec{}, fmt.Errorf("spec record version %d (want ≤%d)", v, registryVersion)
	}
	sp := Spec{
		Name:            name,
		Kernel:          r.String(),
		Weight:          int(r.U32()),
		MaxTaskAttempts: int(r.U32()),
		RetryBudget:     int(r.U32()),
		TaskTimeout:     time.Duration(r.U64()),
	}
	if v >= registryVersion {
		sp.ByteBudget = int64(r.U64())
	}
	n := int(r.U32())
	if r.Err() == nil && n > r.Remaining() {
		return Spec{}, fmt.Errorf("spec record claims %d tasks in %d bytes", n, r.Remaining())
	}
	for i := 0; i < n; i++ {
		sp.Tasks = append(sp.Tasks, r.RawBytes())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return Spec{}, fmt.Errorf("malformed spec record")
	}
	return sp, sp.validate()
}

// doneSummary is a terminal job's completion record.
type doneSummary struct {
	state       State
	completed   int
	failed      int
	retriesUsed int
	taskSeconds time.Duration
	resultCRC   uint32
}

// resultCRC folds completed results in task order into one checksum.
func resultCRC(l *cluster.Ledger) uint32 {
	h := crc32.NewIEEE()
	var idx [8]byte
	for t, r := range l.Results {
		if !l.Completed(t) {
			continue
		}
		for i := range idx {
			idx[i] = byte(t >> (8 * i))
		}
		h.Write(idx[:])
		h.Write(r)
	}
	return h.Sum32()
}

func encodeDone(sum doneSummary) []byte {
	w := serial.NewWriter(32)
	w.U8(registryVersion)
	w.U8(uint8(sum.state))
	w.U32(uint32(sum.completed))
	w.U32(uint32(sum.failed))
	w.U32(uint32(sum.retriesUsed))
	w.U64(uint64(sum.taskSeconds))
	w.U32(sum.resultCRC)
	return w.Bytes()
}

func decodeDone(payload []byte) (doneSummary, error) {
	r := serial.NewReader(payload)
	// The summary layout is unchanged since v1; accept either version.
	if v := r.U8(); v != registryVersion && v != registrySpecV1 {
		return doneSummary{}, fmt.Errorf("summary record version %d (want ≤%d)", v, registryVersion)
	}
	sum := doneSummary{
		state:       State(r.U8()),
		completed:   int(r.U32()),
		failed:      int(r.U32()),
		retriesUsed: int(r.U32()),
		taskSeconds: time.Duration(r.U64()),
		resultCRC:   r.U32(),
	}
	if r.Err() != nil || r.Remaining() != 0 || !sum.state.Terminal() {
		return doneSummary{}, fmt.Errorf("malformed summary record")
	}
	return sum, nil
}
