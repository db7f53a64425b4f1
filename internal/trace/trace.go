// Package trace is the runtime's phase profiler: per-rank, timestamped
// begin/end spans over named phases (scatter, broadcast, kernel, reduce,
// …) plus instant events carrying byte counts. The paper's overhead
// attributions — "40% of Triolet's overhead … attributable to the garbage
// collector" (§4.3), "transposition takes 35% of Eden's execution time"
// (§4.3), "60% of Triolet's execution time … from allocation overhead"
// (§4.5) — are the kind of numbers this subsystem produces: a cluster run
// with a Tracer attached yields per-phase totals and a per-rank text
// timeline.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind distinguishes event types.
type Kind uint8

const (
	// KindBegin opens a span.
	KindBegin Kind = iota
	// KindEnd closes the most recent open span with the same rank+phase.
	KindEnd
	// KindInstant is a point event (typically a message, with Bytes set).
	KindInstant
)

// Event is one raw trace record.
type Event struct {
	Rank  int
	Phase string
	Kind  Kind
	At    time.Duration // since the tracer's start
	Bytes int64
}

// Span is a paired begin/end interval.
type Span struct {
	Rank  int
	Phase string
	Start time.Duration
	Dur   time.Duration
}

// Tracer collects events. All methods are safe for concurrent use; a nil
// *Tracer is a valid no-op tracer, so call sites need no guards.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// New returns a tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Begin opens a span for (rank, phase) and returns the closer.
func (t *Tracer) Begin(rank int, phase string) func() {
	if t == nil {
		return func() {}
	}
	t.record(Event{Rank: rank, Phase: phase, Kind: KindBegin, At: time.Since(t.start)})
	return func() {
		t.record(Event{Rank: rank, Phase: phase, Kind: KindEnd, At: time.Since(t.start)})
	}
}

// Instant records a point event with a byte payload size.
func (t *Tracer) Instant(rank int, phase string, bytes int64) {
	if t == nil {
		return
	}
	t.record(Event{Rank: rank, Phase: phase, Kind: KindInstant, At: time.Since(t.start), Bytes: bytes})
}

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a snapshot of the raw event log in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Spans pairs begin/end events into intervals. Unclosed begins are dropped;
// nesting of the same (rank, phase) pairs innermost-first.
func (t *Tracer) Spans() []Span {
	events := t.Events()
	type key struct {
		rank  int
		phase string
	}
	open := map[key][]time.Duration{}
	var spans []Span
	for _, e := range events {
		k := key{e.Rank, e.Phase}
		switch e.Kind {
		case KindBegin:
			open[k] = append(open[k], e.At)
		case KindEnd:
			stack := open[k]
			if len(stack) == 0 {
				continue // unmatched end: ignore
			}
			start := stack[len(stack)-1]
			open[k] = stack[:len(stack)-1]
			spans = append(spans, Span{Rank: e.Rank, Phase: e.Phase, Start: start, Dur: e.At - start})
		}
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Rank != spans[j].Rank {
			return spans[i].Rank < spans[j].Rank
		}
		return spans[i].Start < spans[j].Start
	})
	return spans
}

// PhaseTotals sums span durations per phase across all ranks.
func (t *Tracer) PhaseTotals() map[string]time.Duration {
	totals := map[string]time.Duration{}
	for _, s := range t.Spans() {
		totals[s.Phase] += s.Dur
	}
	return totals
}

// Count reports how many instant events were recorded for phase. The farm
// supervisor's health events ("farm.retire", "farm.task-fail",
// "farm.quarantine", …) are instants, so tests and monitors can assert on
// supervision activity without parsing the event log.
func (t *Tracer) Count(phase string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.events {
		if e.Kind == KindInstant && e.Phase == phase {
			n++
		}
	}
	return n
}

// InstantValues returns each instant event's Bytes value for phase, in
// record order. Instants double as metric samples (the reliable layer's
// "net.fast-retry", the farm's "farm.resume" count), and per-sample
// access — not just the Count/PhaseBytes aggregates — is what lets a test
// check an individual sample.
func (t *Tracer) InstantValues(phase string) []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, e := range t.events {
		if e.Kind == KindInstant && e.Phase == phase {
			out = append(out, e.Bytes)
		}
	}
	return out
}

// PhaseBytes sums instant-event bytes per phase.
func (t *Tracer) PhaseBytes() map[string]int64 {
	out := map[string]int64{}
	for _, e := range t.Events() {
		if e.Kind == KindInstant {
			out[e.Phase] += e.Bytes
		}
	}
	return out
}

// Summary renders per-phase totals (time and bytes), largest first.
func (t *Tracer) Summary() string {
	totals := t.PhaseTotals()
	bytes := t.PhaseBytes()
	phases := make([]string, 0, len(totals)+len(bytes))
	seen := map[string]bool{}
	for p := range totals {
		phases = append(phases, p)
		seen[p] = true
	}
	for p := range bytes {
		if !seen[p] {
			phases = append(phases, p)
		}
	}
	sort.Slice(phases, func(i, j int) bool {
		if totals[phases[i]] != totals[phases[j]] {
			return totals[phases[i]] > totals[phases[j]]
		}
		return phases[i] < phases[j]
	})
	var sb strings.Builder
	sb.WriteString("phase totals:\n")
	for _, p := range phases {
		fmt.Fprintf(&sb, "  %-20s %12s", p, totals[p].Round(time.Microsecond))
		if b := bytes[p]; b > 0 {
			fmt.Fprintf(&sb, "  %d bytes", b)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Gantt renders a text timeline: one row per rank, width columns spanning
// the trace duration, each span drawn with the first letter of its phase.
// Overlapping spans on a rank draw later-starting on top.
func (t *Tracer) Gantt(width int) string {
	spans := t.Spans()
	if len(spans) == 0 || width <= 0 {
		return "(no spans)\n"
	}
	var end time.Duration
	maxRank := 0
	for _, s := range spans {
		if s.Start+s.Dur > end {
			end = s.Start + s.Dur
		}
		if s.Rank > maxRank {
			maxRank = s.Rank
		}
	}
	if end == 0 {
		end = 1
	}
	rows := make([][]byte, maxRank+1)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(".", width))
	}
	for _, s := range spans {
		lo := int(int64(s.Start) * int64(width) / int64(end))
		hi := int(int64(s.Start+s.Dur) * int64(width) / int64(end))
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		ch := byte('?')
		if len(s.Phase) > 0 {
			ch = s.Phase[0]
		}
		for c := lo; c < hi; c++ {
			rows[s.Rank][c] = ch
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline (%s total):\n", end.Round(time.Microsecond))
	for r, row := range rows {
		fmt.Fprintf(&sb, "  rank %2d |%s|\n", r, row)
	}
	return sb.String()
}
