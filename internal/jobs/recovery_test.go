package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/locman"
)

// referenceResult computes the byte-exact report document for a spec the
// way pcnsim -json would, bypassing the manager entirely.
func referenceResult(t *testing.T, spec Spec) []byte {
	t.Helper()
	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(metrics)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyDir replicates a data directory, snapshotting exactly what a
// SIGKILL would leave on disk at that instant (including any torn
// journal tail).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			// A live manager renamed a temp file away mid-walk; a crash
			// at this instant would not have left it either.
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManagerRecoversCompletedResults(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()

	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if _, err := m1.Submit(spec); !errors.Is(err, ErrRecovering) {
		t.Fatalf("submit before Recover: %v, want ErrRecovering", err)
	}
	if !m1.Recovering() {
		t.Error("manager should report recovering before Recover")
	}
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	if m1.Recovering() {
		t.Error("manager still recovering after Recover")
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, v.ID)
	result, err := m1.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Cancel(cv.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, cv.ID)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Error("recovered result bytes differ from the original")
	}
	if !bytes.Equal(got, referenceResult(t, spec)) {
		t.Error("recovered result bytes differ from the engine reference")
	}
	cg, err := m2.Get(cv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cg.State != StateCancelled {
		t.Errorf("cancelled job recovered as %s", cg.State)
	}
	st := m2.Stats()
	if st.ReplayedRecords == 0 || st.JournalRecords == 0 || st.JournalBytes == 0 {
		t.Errorf("recovery stats empty: %+v", st)
	}
	// Ids continue past the journaled jobs rather than colliding.
	nv, err := m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID <= cv.ID {
		t.Errorf("post-recovery id %s does not continue past %s", nv.ID, cv.ID)
	}
	waitTerminal(t, m2, nv.ID)
}

// TestManagerCrashResumeByteIdentity is the in-process analogue of the
// CI chaos leg: snapshot the data directory while a checkpointed job is
// mid-run (exactly the bytes a SIGKILL would leave), recover a second
// manager from the snapshot, and require the resumed job's stored
// result to be byte-identical to the engine reference.
func TestManagerCrashResumeByteIdentity(t *testing.T) {
	dirA := t.TempDir()
	dirB := t.TempDir()
	spec := testSpec()
	spec.Slots = 10_000_000
	const every = 250_000

	mA := New(Options{QueueDepth: 4, Workers: 1, DataDir: dirA, CheckpointEvery: every})
	if err := mA.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dirA, "checkpoints", v.ID+".ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint file appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	copyDir(t, dirA, dirB)
	// The original process is now irrelevant; tear it down hard.
	mA.Cancel(v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	mA.Shutdown(ctx)

	// The snapshot must have caught the job mid-run for the test to
	// exercise resume; with a ~40-checkpoint run this only fails if the
	// machine stalls for the whole run length between poll and copy.
	recs, _, err := ReplayJournal(bytes.NewReader(mustRead(t, filepath.Join(dirB, "journal.ndjson"))))
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Kind == KindState && last.To.Terminal() {
		t.Skip("job finished before the snapshot; nothing to resume")
	}

	mB := New(Options{QueueDepth: 4, Workers: 1, DataDir: dirB, CheckpointEvery: every})
	if err := mB.Recover(); err != nil {
		t.Fatal(err)
	}
	defer mB.Shutdown(context.Background())
	if st := mB.Stats(); st.RecoveredJobs != 1 {
		t.Fatalf("RecoveredJobs = %d, want 1", st.RecoveredJobs)
	}
	got := waitTerminal(t, mB, v.ID)
	if got.State != StateDone {
		t.Fatalf("recovered job ended %s (%s)", got.State, got.Error)
	}
	result, err := mB.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, referenceResult(t, spec)) {
		t.Error("resumed job's result is not byte-identical to the engine reference")
	}
	st := mB.Stats()
	if st.ResumedJobs != 1 {
		t.Errorf("ResumedJobs = %d, want 1 (fallbacks %d)", st.ResumedJobs, st.CheckpointFallbacks)
	}
	if _, err := os.Stat(filepath.Join(dirB, "checkpoints", v.ID+".ckpt")); !os.IsNotExist(err) {
		t.Error("terminal job's checkpoint file was not removed")
	}
}

// TestManagerHostileCheckpointFallsBack: a checkpoint file that decodes
// but holds state no engine could have written (here a missing latency
// histogram, which once panicked the resume and so crash-looped the
// daemon through journal replay) costs only the resume. The job re-runs
// from slot 0, its result is byte-identical to the engine reference, and
// the fallback is counted.
func TestManagerHostileCheckpointFallsBack(t *testing.T) {
	spec := testSpec()
	const every = 500
	var planted []byte
	checkpointRun(t, spec, every, func(cp *locman.Checkpoint) {
		if planted != nil {
			return
		}
		// A delivered checkpoint carries the sections its shards
		// encoded, so the edit goes into a decoded copy.
		data, err := locman.EncodeCheckpoint(cp)
		if err != nil {
			t.Error(err)
		}
		edited, err := locman.DecodeCheckpoint(data)
		if err != nil {
			t.Error(err)
			return
		}
		edited.Shard[0].Metrics.DelayHist = nil
		if planted, err = locman.EncodeCheckpoint(edited); err != nil {
			t.Error(err)
		}
	})
	recoverFromPlanted(t, spec, every, planted)
}

// TestManagerRetiredCheckpointFallsBack: a checkpoint file in a retired
// format (PCNCKPT2), as an older binary would leave it for a job in
// flight across an upgrade, is refused by name and costs only the
// resume: the job re-runs from slot 0 to a byte-identical result. The
// planted file is a valid checkpoint of the job under the old magic, so
// only the format refuses it.
func TestManagerRetiredCheckpointFallsBack(t *testing.T) {
	spec := testSpec()
	const every = 500
	var planted []byte
	checkpointRun(t, spec, every, func(cp *locman.Checkpoint) {
		if planted == nil {
			data, err := locman.EncodeCheckpoint(cp)
			if err != nil {
				t.Error(err)
			}
			planted = append([]byte("PCNCKPT2"), data[len("PCNCKPT3"):]...)
		}
	})
	if _, err := locman.DecodeCheckpoint(planted); !errors.Is(err, sim.ErrRetiredCheckpointFormat) {
		t.Fatalf("planted file: got %v, want sim.ErrRetiredCheckpointFormat", err)
	}
	recoverFromPlanted(t, spec, every, planted)
}

// checkpointRun runs spec with a checkpoint handed to sink every every
// slots.
func checkpointRun(t *testing.T, spec Spec, every int64, sink func(*locman.Checkpoint)) {
	t.Helper()
	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := locman.SimulateNetworkCheckpointed(context.Background(),
		cfg, spec.Slots, spec.Shards, every, sink); err != nil {
		t.Fatal(err)
	}
}

// recoverFromPlanted journals spec as a job that was running when the
// daemon died, with planted as its checkpoint file, and recovers it. The
// file must not resume: the job must finish from a clean run with the
// engine reference's bytes, counted as one checkpoint fallback.
func recoverFromPlanted(t *testing.T, spec Spec, every int64, planted []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	const id = "j000001"
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", id+".ckpt"), planted, 0o644); err != nil {
		t.Fatal(err)
	}
	jl, _, err := OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: KindSubmit, Job: id, Spec: &spec, Time: time.Now()},
		{Kind: KindState, Job: id, From: StateQueued, To: StateRunning, Time: time.Now()},
	} {
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, CheckpointEvery: every})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if v := waitTerminal(t, m, id); v.State != StateDone {
		t.Fatalf("job ended %s (%s)", v.State, v.Error)
	}
	got, err := m.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceResult(t, spec)) {
		t.Error("result after the fallback differs from the engine reference")
	}
	if st := m.Stats(); st.CheckpointFallbacks != 1 || st.ResumedJobs != 0 {
		t.Errorf("CheckpointFallbacks = %d, ResumedJobs = %d; want 1, 0", st.CheckpointFallbacks, st.ResumedJobs)
	}
}

// TestManagerRecoveryGrowsQueue: recovery must never drop acknowledged
// jobs to backpressure, even when more jobs were journaled than the
// configured queue depth.
func TestManagerRecoveryGrowsQueue(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	jl, _, err := OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	ids := []string{"j000001", "j000002", "j000003", "j000004", "j000005"}
	for _, id := range ids {
		if err := jl.Append(Record{Kind: KindSubmit, Job: id, Spec: &spec, Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	// The first job was mid-run when the crash hit.
	if err := jl.Append(Record{Kind: KindState, Job: ids[0], From: StateQueued, To: StateRunning, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	m := New(Options{QueueDepth: 2, Workers: 1, DataDir: dir})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if st := m.Stats(); st.RecoveredJobs != int64(len(ids)) {
		t.Fatalf("RecoveredJobs = %d, want %d", st.RecoveredJobs, len(ids))
	}
	want := referenceResult(t, spec)
	for _, id := range ids {
		v := waitTerminal(t, m, id)
		if v.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, v.State, v.Error)
		}
		got, err := m.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s result differs from the reference", id)
		}
	}
}
