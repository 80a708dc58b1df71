package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/locman"
)

// checkpointFiles lists the checkpoint directory's .ckpt and .tmp files.
func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".ckpt") || strings.HasSuffix(n, ".tmp") {
			names = append(names, n)
		}
	}
	return names
}

// TestCheckpointWriterLifecycle holds a job's second checkpoint
// write in flight (its temp file created, nothing written yet) while the
// job is cancelled, or while its deadline passes. Once the job is
// terminal no checkpoint or temp file may be left, every checkpoint
// record must precede the terminal record, and CheckpointsWritten must
// count exactly the journaled checkpoints, the one in flight included.
// CI runs it under -race.
func TestCheckpointWriterLifecycle(t *testing.T) {
	const every = 1_000
	for _, tc := range []struct {
		name    string
		timeout float64
		want    State
	}{
		{"cancel", 0, StateCancelled},
		{"deadline", 2, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, CheckpointEvery: every})
			inFlight := make(chan struct{})
			release := make(chan struct{})
			m.writingCheckpoint = func(id string, slot int64) {
				if slot == 2*every {
					close(inFlight)
					<-release
				}
			}
			if err := m.Recover(); err != nil {
				t.Fatal(err)
			}
			defer m.Shutdown(context.Background())
			spec := testSpec()
			spec.Terminals = 1_000
			spec.Slots = 50_000_000
			spec.TimeoutSec = tc.timeout
			start := time.Now()
			v, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-inFlight:
			case <-time.After(30 * time.Second):
				t.Fatal("the second checkpoint write never started")
			}
			ckpt := filepath.Join(dir, "checkpoints", v.ID+".ckpt")
			if _, err := os.Stat(ckpt + ".tmp"); err != nil {
				t.Errorf("no temp file while the write is in flight: %v", err)
			}
			if tc.timeout == 0 {
				if _, err := m.Cancel(v.ID); err != nil {
					t.Fatal(err)
				}
			} else {
				time.Sleep(time.Until(start.Add(time.Duration(tc.timeout * float64(time.Second)))))
			}
			close(release)
			if got := waitTerminal(t, m, v.ID); got.State != tc.want {
				t.Fatalf("job ended %s (%s), want %s", got.State, got.Error, tc.want)
			}
			if left := checkpointFiles(t, dir); len(left) > 0 {
				t.Errorf("terminal job left %v", left)
			}
			written := m.Stats().CheckpointsWritten

			recs, _, err := ReplayJournal(bytes.NewReader(mustRead(t, filepath.Join(dir, "journal.ndjson"))))
			if err != nil {
				t.Fatal(err)
			}
			var ckpts int64
			terminal := false
			for _, r := range recs {
				switch {
				case r.Kind == KindCheckpoint:
					if terminal {
						t.Errorf("checkpoint record at slot %d after the terminal record", r.Slot)
					}
					ckpts++
					if r.Slot != ckpts*every {
						t.Errorf("checkpoint record %d at slot %d, want %d", ckpts, r.Slot, ckpts*every)
					}
				case r.Kind == KindState && r.To.Terminal():
					terminal = true
				}
			}
			if !terminal {
				t.Error("no terminal record journaled")
			}
			if ckpts < 2 || written != ckpts {
				t.Errorf("CheckpointsWritten = %d, journaled checkpoint records = %d; want equal and at least 2",
					written, ckpts)
			}
		})
	}
}

// TestCheckpointFileMatchesEncoder: the file the manager streams
// from the shards' sections holds exactly locman.EncodeCheckpoint's
// bytes for the same boundary. Each checkpoint is read back when the
// next one starts, after it has landed.
func TestCheckpointFileMatchesEncoder(t *testing.T) {
	const every = 500
	spec := testSpec()
	spec.Terminals = 300
	spec.Slots = 2_600
	spec.Shards = 3
	spec.SnapshotEvery = 300
	spec.Faults = &locman.FaultPlan{UpdateLoss: 0.2, PollLoss: 0.1, UpdateRetries: 2, PageRetries: 1}
	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]byte{}
	if _, err := locman.SimulateNetworkCheckpointed(context.Background(),
		cfg, spec.Slots, spec.Shards, every, func(cp *locman.Checkpoint) {
			data, err := locman.EncodeCheckpoint(cp)
			if err != nil {
				t.Error(err)
			}
			want[cp.Slot] = data
		}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, CheckpointEvery: every})
	got := map[int64][]byte{}
	m.writingCheckpoint = func(id string, slot int64) {
		if slot > every {
			data, err := os.ReadFile(filepath.Join(dir, "checkpoints", id+".ckpt"))
			if err != nil {
				t.Error(err)
			}
			got[slot-every] = data
		}
	}
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, v.ID); final.State != StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	if len(got) != len(want)-1 {
		t.Fatalf("read back %d checkpoint files, want %d", len(got), len(want)-1)
	}
	for slot, data := range got {
		if !bytes.Equal(data, want[slot]) {
			t.Errorf("slot-%d checkpoint file (%d bytes) differs from EncodeCheckpoint (%d bytes)",
				slot, len(data), len(want[slot]))
		}
	}
}

// TestCheckpointRecoveryPrunesFiles plants what crashes leave in the
// checkpoint directory: temp files of interrupted writes, the checkpoint
// of a job that reached done or cancelled before its removal, and one of
// a job the journal does not know. Recover deletes them all and keeps
// only the interrupted job's checkpoint, which it resumes from.
func TestCheckpointRecoveryPrunesFiles(t *testing.T) {
	const every = 500
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	var resumable []byte
	if _, err := locman.SimulateNetworkCheckpointed(context.Background(),
		cfg, spec.Slots, spec.Shards, every, func(cp *locman.Checkpoint) {
			if resumable == nil {
				resumable, _ = locman.EncodeCheckpoint(cp)
			}
		}); err != nil {
		t.Fatal(err)
	}
	result := referenceResult(t, spec)

	jl, _, err := OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for _, r := range []Record{
		{Kind: KindSubmit, Job: "j000001", Spec: &spec},
		{Kind: KindState, Job: "j000001", From: StateQueued, To: StateRunning},
		{Kind: KindResult, Job: "j000001", Result: result},
		{Kind: KindState, Job: "j000001", From: StateRunning, To: StateDone},
		{Kind: KindSubmit, Job: "j000002", Spec: &spec},
		{Kind: KindState, Job: "j000002", From: StateQueued, To: StateCancelled},
		{Kind: KindSubmit, Job: "j000003", Spec: &spec},
		{Kind: KindState, Job: "j000003", From: StateQueued, To: StateRunning},
	} {
		r.Time = now
		if err := jl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()
	planted := map[string][]byte{
		"j000001.ckpt":     resumable,
		"j000001.ckpt.tmp": resumable[:100],
		"j000002.ckpt":     resumable,
		"j000003.ckpt":     resumable,
		"j000003.ckpt.tmp": resumable[:100],
		"j000009.ckpt":     resumable,
		"README":           []byte("not a checkpoint"),
	}
	for name, data := range planted {
		if err := os.WriteFile(filepath.Join(ckptDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, CheckpointEvery: every})
	// Hold the resumed job's first write so the listing below sees the
	// directory as Recover left it.
	release := make(chan struct{})
	m.writingCheckpoint = func(string, int64) { <-release }
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	left := checkpointFiles(t, dir)
	// The resumed job may have created its next, still empty, temp file.
	if tmp, err := os.Stat(filepath.Join(ckptDir, "j000003.ckpt.tmp")); err == nil && tmp.Size() == 0 {
		left = slices.DeleteFunc(left, func(n string) bool { return n == "j000003.ckpt.tmp" })
	}
	close(release)
	if !slices.Equal(left, []string{"j000003.ckpt"}) {
		t.Errorf("after Recover the checkpoint directory holds %v, want only j000003.ckpt", left)
	}
	if _, err := os.Stat(filepath.Join(ckptDir, "README")); err != nil {
		t.Errorf("a file that is no checkpoint was touched: %v", err)
	}
	if v := waitTerminal(t, m, "j000003"); v.State != StateDone {
		t.Fatalf("interrupted job ended %s (%s)", v.State, v.Error)
	}
	if st := m.Stats(); st.ResumedJobs != 1 {
		t.Errorf("ResumedJobs = %d, want 1 (fallbacks %d)", st.ResumedJobs, st.CheckpointFallbacks)
	}
	got, err := m.Result("j000003")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Error("resumed job's result differs from the engine reference")
	}
}
