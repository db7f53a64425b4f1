package diffcheck

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"triolet/internal/domain"
	"triolet/internal/iter"
)

// A chunk task arrives off the wire: the decoder must turn every field the
// kernel would act on — the engine byte, the window it hands to iter.Split
// (which panics outside the domain), the delay it sleeps — into a
// "malformed chunk task" error, never a panic or an unbounded sleep.
func TestDecodeChunkTaskRejectsMalformed(t *testing.T) {
	splittable := Pipeline{Seed: rampSeed(100), Ops: []iter.PipeOp{{Kind: 1, A: 1}}} // filter: outer length 100
	stepper := Pipeline{Seed: rampSeed(100), Ops: []iter.PipeOp{{Kind: 6}}}          // scan: no outer domain
	good := chunkTask{p: splittable, eng: Block, r: domain.Range{Lo: 10, Hi: 100}, delay: resumeTaskDelay}

	got, err := decodeChunkTask(encodeChunkTask(good))
	if err != nil {
		t.Fatalf("well-formed task rejected: %v", err)
	}
	if got.eng != good.eng || got.r != good.r || got.delay != good.delay || got.whole ||
		len(got.p.Seed) != 100 || len(got.p.Ops) != 1 {
		t.Fatalf("round trip changed the task: %+v", got)
	}
	if _, err := decodeChunkTask(encodeChunkTask(chunkTask{p: stepper, whole: true})); err != nil {
		t.Fatalf("whole-domain task of an unsplittable pipeline rejected: %v", err)
	}

	with := func(edit func(*chunkTask)) []byte {
		bad := good
		edit(&bad)
		return encodeChunkTask(bad)
	}
	for name, payload := range map[string][]byte{
		"engine byte 2":         with(func(c *chunkTask) { c.eng = 2 }),
		"engine byte 255":       with(func(c *chunkTask) { c.eng = 255 }),
		"range past the domain": with(func(c *chunkTask) { c.r.Hi = 101 }),
		"range far past":        with(func(c *chunkTask) { c.r = domain.Range{Lo: 1 << 40, Hi: 1 << 41} }),
		"negative lo":           with(func(c *chunkTask) { c.r.Lo = -1 }),
		"inverted range":        with(func(c *chunkTask) { c.r = domain.Range{Lo: 50, Hi: 49} }),
		"window of a stepper":   with(func(c *chunkTask) { c.p = stepper }),
		"delay above the max":   with(func(c *chunkTask) { c.delay = resumeTaskDelay + time.Millisecond }),
		"delay of an hour":      with(func(c *chunkTask) { c.delay = time.Hour }),
		"negative delay":        with(func(c *chunkTask) { c.delay = -time.Millisecond }),
		"truncated":             encodeChunkTask(good)[:7],
		"empty":                 nil,
	} {
		if _, err := decodeChunkTask(payload); err == nil || !strings.Contains(err.Error(), "malformed chunk task") {
			t.Errorf("%s: decodeChunkTask returned %v, want a malformed chunk task error", name, err)
		}
	}
}

// FuzzDecodeChunkTask feeds arbitrary bytes to the chunk-task decoder. It may
// not panic; a task it accepts re-encodes to the bytes it came from, and its
// window lies inside its pipeline's outer domain — iter.Split takes it.
func FuzzDecodeChunkTask(f *testing.F) {
	windowed := chunkTask{p: Pipeline{Seed: rampSeed(100), Ops: []iter.PipeOp{{Kind: 1, A: 1}}},
		eng: Block, r: domain.Range{Lo: 10, Hi: 100}, delay: resumeTaskDelay}
	whole := chunkTask{p: Pipeline{Seed: rampSeed(5), Ops: []iter.PipeOp{{Kind: 6}, {Kind: 2}}}, whole: true}
	for _, s := range [][]byte{encodeChunkTask(windowed), encodeChunkTask(whole)} {
		f.Add(s)
		f.Add(append(bytes.Clone(s), 0)) // trailing byte
		f.Add(s[:len(s)/2])              // torn task
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		task, err := decodeChunkTask(data)
		if err != nil {
			return
		}
		if again := encodeChunkTask(task); !bytes.Equal(again, data) {
			t.Fatalf("accepted task re-encodes differently:\n got %x\nfrom %x", again, data)
		}
		if !task.whole {
			it := task.p.Build()
			if n, _ := it.OuterLen(); task.r.Lo < 0 || task.r.Hi > n || task.r.Lo > task.r.Hi {
				t.Fatalf("accepted window %v of an outer domain of %d", task.r, n)
			}
			iter.Split(it, task.r)
		}
	})
}
