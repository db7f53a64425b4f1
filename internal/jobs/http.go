package jobs

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"
)

// HTTP surface for the job service (triolet-bench -serve):
//
//	GET  /jobs            → []JobStatus (admission order)
//	GET  /jobs/{name}     → JobStatus, 404 for unknown names
//	POST /jobs            → submit a specJSON body; 201, or 409 (duplicate),
//	                        429 (admission queue full), 503 (stopped)
//	GET  /metrics         → Snapshot
//
// Task payloads cross the HTTP boundary base64-encoded — they are arbitrary
// kernel input bytes, not text.

// ErrBodyTooLarge reports a POST /jobs body over Config.MaxBodyBytes. The
// HTTP surface answers it with 413 and a *BodyLimitError.
var ErrBodyTooLarge = errors.New("jobs: request body too large")

// BodyLimitError carries the cap behind an ErrBodyTooLarge rejection.
type BodyLimitError struct {
	Limit int64 // the configured MaxBodyBytes
}

func (e *BodyLimitError) Error() string {
	return fmt.Sprintf("jobs: request body exceeds %d byte limit", e.Limit)
}

func (e *BodyLimitError) Unwrap() error { return ErrBodyTooLarge }

// specJSON is the POST /jobs request body.
type specJSON struct {
	Name            string   `json:"name"`
	Kernel          string   `json:"kernel"`
	Tasks           []string `json:"tasks"` // base64 payloads
	Weight          int      `json:"weight,omitempty"`
	MaxTaskAttempts int      `json:"max_task_attempts,omitempty"`
	RetryBudget     int      `json:"retry_budget,omitempty"`
	TaskTimeoutMS   int      `json:"task_timeout_ms,omitempty"`
	ByteBudget      int64    `json:"byte_budget,omitempty"`
}

// decodedLen computes a standard-encoding payload's decoded byte length from
// the encoded text alone — no allocation, just the padding arithmetic.
func decodedLen(enc string) (int64, error) {
	if len(enc)%4 != 0 {
		return 0, base64.CorruptInputError(len(enc))
	}
	n := int64(len(enc)) / 4 * 3
	switch {
	case strings.HasSuffix(enc, "=="):
		n -= 2
	case strings.HasSuffix(enc, "="):
		n--
	}
	return n, nil
}

func (sj specJSON) toSpec() (Spec, error) {
	// A millisecond count past MaxInt64 nanoseconds would wrap the
	// Duration (to a tiny or negative timeout). Negative values are
	// Spec.validate's to refuse.
	if sj.TaskTimeoutMS < 0 || time.Duration(sj.TaskTimeoutMS) > math.MaxInt64/time.Millisecond {
		return Spec{}, fmt.Errorf("task_timeout_ms %d outside [0, %d]", sj.TaskTimeoutMS, math.MaxInt64/time.Millisecond)
	}
	sp := Spec{
		Name:            sj.Name,
		Kernel:          sj.Kernel,
		Weight:          sj.Weight,
		MaxTaskAttempts: sj.MaxTaskAttempts,
		RetryBudget:     sj.RetryBudget,
		TaskTimeout:     time.Duration(sj.TaskTimeoutMS) * time.Millisecond,
		ByteBudget:      sj.ByteBudget,
	}
	// Quota pre-check on encoded lengths: an over-quota submission is
	// rejected before any decoded payload is allocated, so a hostile spec
	// cannot make the master materialize bytes its own budget forbids.
	if sj.ByteBudget > 0 {
		var need int64
		for i, enc := range sj.Tasks {
			n, err := decodedLen(enc)
			if err != nil {
				return Spec{}, fmt.Errorf("task %d: %w", i, err)
			}
			need += n
		}
		if need > sj.ByteBudget {
			return Spec{}, &QuotaError{Job: sj.Name, Used: need, Budget: sj.ByteBudget}
		}
	}
	for i, enc := range sj.Tasks {
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return Spec{}, fmt.Errorf("task %d: %w", i, err)
		}
		sp.Tasks = append(sp.Tasks, raw)
	}
	return sp, nil
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, s.Jobs())
		case http.MethodPost:
			s.handleSubmit(w, r)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/jobs/")
		st, ok := s.Job(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown job %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission control on bytes before admission control on jobs: stop
	// reading at the configured cap rather than buffering an unbounded
	// spec.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	var sj specJSON
	if err := dec.Decode(&sj); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			http.Error(w, (&BodyLimitError{Limit: s.cfg.MaxBodyBytes}).Error(),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad spec: %v", err), http.StatusBadRequest)
		return
	}
	// A submission is exactly one JSON document. Anything after it —
	// concatenated documents, smuggled bytes — is a malformed request, not
	// a spec.
	var extra json.RawMessage
	switch err := dec.Decode(&extra); {
	case errors.Is(err, io.EOF):
		// clean end of body
	case errors.As(err, new(*http.MaxBytesError)):
		http.Error(w, (&BodyLimitError{Limit: s.cfg.MaxBodyBytes}).Error(),
			http.StatusRequestEntityTooLarge)
		return
	default:
		http.Error(w, "bad spec: trailing data after JSON document", http.StatusBadRequest)
		return
	}
	sp, err := sj.toSpec()
	if err != nil {
		http.Error(w, fmt.Sprintf("bad spec: %v", err), http.StatusBadRequest)
		return
	}
	switch err := s.Submit(sp); {
	case err == nil:
		st, _ := s.Job(sp.Name)
		writeJSON(w, http.StatusCreated, st)
	case errors.Is(err, ErrQueueFull):
		// Backpressure as a status code: the typed AdmissionError body
		// tells the client the depth it hit.
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrDuplicate):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrStopped):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
