package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder. The traced pass wraps each call into a
// layer of the system in a span; spans live in memory and are written out
// once, at exit (-trace-out). No product code emits into it.

// span is one recorded interval. Spans of one solve share Workload and Solve;
// Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Workload string        `json:"workload"`
	Solve    int           `json:"solve"`
	Name     string        `json:"name"`
	Layer    string        `json:"layer"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans. A nil *recorder records nothing, which is how the
// untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// scope names the solve a span belongs to.
type scope struct {
	rec      *recorder
	workload string
	solve    int
}

// begin opens a span under parent and returns its ID and closer.
func (sc *scope) begin(parent int, name, layer string) (int, func()) {
	if sc == nil || sc.rec == nil {
		return 0, func() {}
	}
	r := sc.rec
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Workload: sc.workload, Solve: sc.solve,
		Name: name, Layer: layer, Start: time.Since(r.t0), End: -1,
	})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0)
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// traced reports whether spans are being recorded.
func (sc *scope) traced() bool { return sc != nil && sc.rec != nil }

// all returns the closed spans in ID order.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children are
// counted once (the union of their intervals, clipped to the parent).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time by layer over one workload's spans.
func layerSelf(spans []span, workload string) map[string]time.Duration {
	var mine []span
	for _, s := range spans {
		if s.Workload == workload {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	out := map[string]time.Duration{}
	for _, s := range mine {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// chromeEvent is one complete ("X") or metadata ("M") event of the Chrome
// trace-event format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace lays spans out with one pid per workload and one tid per
// layer, both numbered in first-appearance order and named by metadata events.
func chromeTrace(spans []span) []chromeEvent {
	pids, tids := map[string]int{}, map[string]int{}
	var events []chromeEvent
	for _, s := range spans {
		pid, ok := pids[s.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[s.Workload] = pid
			events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Workload}})
		}
		key := s.Workload + "\x00" + s.Layer
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": s.Layer}})
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "solve": s.Solve},
		})
	}
	return events
}

// writeChromeTrace writes spans to path as Chrome trace-event JSON.
func writeChromeTrace(path string, spans []span) error {
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{chromeTrace(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
