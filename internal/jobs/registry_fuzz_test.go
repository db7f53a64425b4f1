package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzJobSpec feeds the job service's trust boundaries arbitrary bytes: a
// POST /jobs body (JSON through specJSON.toSpec), a registry spec record
// (decodeSpec) and a registry summary record (decodeDone). Nothing may panic.
// A body Submit would admit must read back from its registry record as the
// same spec, or a restarted master runs a different job. A record the
// registry accepts must pass validate and re-encode to the same bytes (a
// version-1 record, which predates the byte budget, re-encodes as version 2).
func FuzzJobSpec(f *testing.F) {
	sp := Spec{Name: "j", Kernel: "k", Tasks: [][]byte{{1, 2}, nil}, Weight: 2, MaxTaskAttempts: 3,
		RetryBudget: 4, TaskTimeout: time.Millisecond, ByteBudget: 64}
	sum := encodeDone(doneSummary{state: Done, completed: 2, taskSeconds: time.Second, resultCRC: 7})
	f.Add([]byte(`{"name":"j","kernel":"k","tasks":["AQI=",""],"weight":4294967295,"max_task_attempts":3}`),
		encodeSpec(sp), sum)
	f.Add([]byte(`{"name":"q","kernel":"k","tasks":["AAAA"],"byte_budget":3,"task_timeout_ms":5}`),
		encodeSpec(sp)[:20], sum[:5])
	f.Fuzz(func(t *testing.T, body, spec, done []byte) {
		var sj specJSON
		if json.Unmarshal(body, &sj) == nil {
			if sp, err := sj.toSpec(); err == nil {
				if sp = sp.withDefaults(); sp.validate() == nil {
					back, err := decodeSpec(sp.Name, encodeSpec(sp))
					if err != nil || !reflect.DeepEqual(back, normTasks(sp)) {
						t.Fatalf("admitted %+v, registry reads back %+v (%v)", sp, back, err)
					}
				}
			}
		}
		if sp, err := decodeSpec("j", spec); err == nil {
			if err := sp.validate(); err != nil {
				t.Fatalf("accepted spec record fails validate: %v", err)
			}
			if again := encodeSpec(sp); spec[0] == registryVersion && !bytes.Equal(again, spec) {
				t.Fatalf("spec record %x re-encodes as %x", spec, again)
			}
		}
		if s, err := decodeDone(done); err == nil {
			if again := encodeDone(s); !bytes.Equal(again[1:], done[1:]) {
				t.Fatalf("summary record %x re-encodes as %x", done, again)
			}
		}
	})
}

// normTasks is sp as the registry reads it back: an empty task payload
// decodes as an empty, non-nil slice.
func normTasks(sp Spec) Spec {
	tasks := make([][]byte, len(sp.Tasks))
	for i, t := range sp.Tasks {
		tasks[i] = append([]byte{}, t...)
	}
	sp.Tasks = tasks
	return sp
}
