package jobs

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJobs(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func specBody(name string, payloadLen int, budget int64) string {
	enc := base64.StdEncoding.EncodeToString(make([]byte, payloadLen))
	b := ""
	if budget > 0 {
		b = fmt.Sprintf(`,"byte_budget":%d`, budget)
	}
	return fmt.Sprintf(`{"name":%q,"kernel":"k","tasks":[%q]%s}`, name, enc, b)
}

// TestHTTPBodyLimit: bodies over Config.MaxBodyBytes answer 413 with the
// typed body-limit error; bodies under it are admitted normally.
func TestHTTPBodyLimit(t *testing.T) {
	s := newTestService(t, Config{MaxBodyBytes: 256})
	h := s.Handler()

	rec := postJobs(t, h, specBody("big", 600, 0))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	want := (&BodyLimitError{Limit: 256}).Error()
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("oversized body: %q does not mention %q", rec.Body.String(), want)
	}

	rec = postJobs(t, h, specBody("small", 8, 0))
	if rec.Code != http.StatusCreated {
		t.Fatalf("small body: status %d (%s), want 201", rec.Code, rec.Body.String())
	}
}

// TestHTTPTrailingGarbage: a submission is exactly one JSON document.
func TestHTTPTrailingGarbage(t *testing.T) {
	s := newTestService(t, Config{})
	h := s.Handler()
	for _, trailer := range []string{"garbage", `{"name":"smuggled"}`, "null"} {
		rec := postJobs(t, h, specBody("t1", 4, 0)+trailer)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("trailer %q: status %d, want 400", trailer, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "trailing data") {
			t.Fatalf("trailer %q: body %q", trailer, rec.Body.String())
		}
	}
	// Trailing whitespace is a clean end of body, not garbage.
	if rec := postJobs(t, h, specBody("t2", 4, 0)+"\n  \n"); rec.Code != http.StatusCreated {
		t.Fatalf("whitespace trailer: status %d (%s), want 201", rec.Code, rec.Body.String())
	}
}

// TestHTTPQuotaPrecheck: an over-quota submission is rejected from the
// encoded lengths alone, and the budget threads through to the job status.
func TestHTTPQuotaPrecheck(t *testing.T) {
	s := newTestService(t, Config{})
	h := s.Handler()

	rec := postJobs(t, h, specBody("over", 64, 63))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("over-quota: status %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "over byte quota") {
		t.Fatalf("over-quota: body %q", rec.Body.String())
	}
	if _, ok := s.Job("over"); ok {
		t.Fatal("over-quota job was admitted")
	}

	if rec := postJobs(t, h, specBody("fits", 64, 64)); rec.Code != http.StatusCreated {
		t.Fatalf("at-quota: status %d (%s), want 201", rec.Code, rec.Body.String())
	}
	st, ok := s.Job("fits")
	if !ok || st.ByteBudget != 64 {
		t.Fatalf("byte_budget did not thread through: %+v", st)
	}
}

// TestHTTPCountsBeyondRegistryRange: the registry stores weight,
// max_task_attempts and retry_budget as U32, so a larger value would come
// back from a restart as another one (2^32 as 0: a job never scheduled, or
// one whose every failure quarantines). A task_timeout_ms whose nanoseconds
// pass MaxInt64 would wrap (18446744073710 to a 448µs timeout that fails
// every attempt, 9223372036855 to a negative one that disables it). A
// negative count would silently mean its default ({"weight":-5} admitted at
// weight 1), a negative timeout or byte_budget "none". Submission refuses
// each; the largest value that survives is admitted, and 0 is the default.
func TestHTTPCountsBeyondRegistryRange(t *testing.T) {
	s := newTestService(t, Config{})
	h := s.Handler()
	for i, c := range []struct {
		field, value string
		want         int
	}{
		{"weight", "4294967296", http.StatusBadRequest},
		{"max_task_attempts", "4294967296", http.StatusBadRequest},
		{"retry_budget", "4294967296", http.StatusBadRequest},
		{"task_timeout_ms", "18446744073710", http.StatusBadRequest},
		{"task_timeout_ms", "9223372036855", http.StatusBadRequest},
		{"task_timeout_ms", "-1", http.StatusBadRequest},
		{"byte_budget", "-1", http.StatusBadRequest},
		{"weight", "-5", http.StatusBadRequest},
		{"max_task_attempts", "-1", http.StatusBadRequest},
		{"retry_budget", "-1", http.StatusBadRequest},
		{"weight", "4294967295", http.StatusCreated},
		{"weight", "0", http.StatusCreated},
		{"task_timeout_ms", "9223372036854", http.StatusCreated},
	} {
		body := strings.Replace(specBody(fmt.Sprintf("j%d", i), 4, 0), "{", fmt.Sprintf(`{%q:%s,`, c.field, c.value), 1)
		rec := postJobs(t, h, body)
		if rec.Code != c.want || (c.want == http.StatusBadRequest && !strings.Contains(rec.Body.String(), c.field)) {
			t.Fatalf("%s %s: status %d (%s), want %d", c.field, c.value, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestDecodedLen: the padding arithmetic matches the real decoder for every
// small payload size, so the pre-check can never reject a spec the decode
// would have accepted (or vice versa).
func TestDecodedLen(t *testing.T) {
	for size := 0; size <= 17; size++ {
		enc := base64.StdEncoding.EncodeToString(make([]byte, size))
		got, err := decodedLen(enc)
		if err != nil || got != int64(size) {
			t.Fatalf("decodedLen(%q) = (%d, %v), want (%d, nil)", enc, got, err, size)
		}
	}
	if _, err := decodedLen("abc"); err == nil {
		t.Fatal("decodedLen accepted a non-multiple-of-4 input")
	}
}
