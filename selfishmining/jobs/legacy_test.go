package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/selfishmining"
)

// TestLegacyKernelFieldRecordsResumeBitwise: builds that still offered a
// choice of value-iteration kernel stored it as "kernel" in a job's spec.
// A canceled, checkpointed analyze job and sweep job whose persisted specs
// carry "kernel":"gs" must still load from their DiskStore directory — the
// stores decode with plain json.Unmarshal, which skips unknown fields — and
// resume to bitwise the same ERRev and figure as the same records without
// the field.
func TestLegacyKernelFieldRecordsResumeBitwise(t *testing.T) {
	analyze := familySpecs[0].spec
	sweep := adaptiveSweepSpec()
	for _, tc := range []struct {
		name string
		req  Request
		// specKey opens the spec object the field is written into.
		specKey string
	}{
		{"analyze", Request{Kind: KindAnalyze, Analyze: &analyze}, `"analyze":{`},
		{"sweep", Request{Kind: KindSweep, Sweep: &sweep}, `"sweep":{`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, id := canceledJobDir(t, tc.req)
			legacy := t.TempDir()
			data, err := os.ReadFile(filepath.Join(plain, id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Count(data, []byte(tc.specKey)) != 1 {
				t.Fatalf("record does not hold exactly one %s object: %s", tc.specKey, data)
			}
			data = bytes.Replace(data, []byte(tc.specKey), []byte(tc.specKey+`"kernel":"gs",`), 1)
			if err := os.WriteFile(filepath.Join(legacy, id+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}

			want := resumeFromDir(t, plain, id)
			got := resumeFromDir(t, legacy, id)
			if tc.req.Kind == KindAnalyze {
				equalJobResults(t, "resumed with a kernel field", want.Result, got.Result)
				return
			}
			wantFig, err := want.SweepResult.Figure()
			if err != nil {
				t.Fatal(err)
			}
			gotFig, err := got.SweepResult.Figure()
			if err != nil {
				t.Fatal(err)
			}
			equalFigures(t, "resumed with a kernel field", wantFig, gotFig)
		})
	}
}

// canceledJobDir runs req on a manager over a fresh DiskStore directory,
// cancels it mid-run — after the second binary-search step of an analysis,
// or past the coarse pass of a sweep — and closes the manager, leaving the
// canceled job's checkpointed record on disk. It returns the directory and
// the job's id.
func canceledJobDir(t *testing.T, req Request) (string, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(selfishmining.NewService(selfishmining.ServiceConfig{}), Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	m.progressGate = func(id string, iter int) {
		if iter == 2 {
			once.Do(func() { m.Cancel(id) })
		}
	}
	if req.Sweep != nil {
		m.pointGate = func(id string, done int) {
			if done == len(req.Sweep.PGrid)+1 {
				once.Do(func() { m.Cancel(id) })
			}
		}
	}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if canceled := waitState(t, m, st.ID, StateCanceled); !canceled.HasCheckpoint {
		t.Fatal("no checkpoint persisted on cancel")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir, st.ID
}

// resumeFromDir opens dir with a fresh manager and service, resumes job id
// and returns its finished status.
func resumeFromDir(t *testing.T, dir, id string) *Status {
	t.Helper()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Store: store})
	rec, err := m.Get(id)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if rec.State != StateCanceled || !rec.HasCheckpoint {
		t.Fatalf("recovered job is %s (checkpoint %v), want canceled with a checkpoint", rec.State, rec.HasCheckpoint)
	}
	if _, err := m.Resume(id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return waitState(t, m, id, StateDone)
}
