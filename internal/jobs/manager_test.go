package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/locman"
)

// testSpec is a small job that completes in well under a second.
func testSpec() Spec {
	return Spec{
		Model:      "2d",
		MoveProb:   0.05,
		CallProb:   0.01,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   3,
		Terminals:  10,
		Slots:      2_000,
		Shards:     2,
		Seed:       1,
	}
}

// waitTerminal blocks until the job leaves the non-terminal states.
func waitTerminal(t *testing.T, m *Manager, id string) View {
	t.Helper()
	done, err := m.Done(id)
	if err != nil {
		t.Fatalf("Done(%s): %v", id, err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	v, err := m.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	return v
}

// TestManagerRunsJob walks one job through the happy path: submit,
// complete, result available, stats consistent.
func TestManagerRunsJob(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())

	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.ID == "" || v.State != StateQueued || v.Schema != SpecSchema {
		t.Fatalf("unexpected submit view: %+v", v)
	}
	if v.TotalTerminalSlots != 20_000 {
		t.Fatalf("TotalTerminalSlots = %d, want 20000", v.TotalTerminalSlots)
	}

	final := waitTerminal(t, m, v.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.TerminalSlots != final.TotalTerminalSlots {
		t.Fatalf("done job at %d/%d terminal-slots", final.TerminalSlots, final.TotalTerminalSlots)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("done job missing lifecycle timestamps")
	}

	raw, err := m.Result(v.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	var report locman.Report
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("result does not decode as a report: %v", err)
	}
	if report.Schema != locman.ReportSchema || report.Slots != 2_000 {
		t.Fatalf("unexpected report: schema %d, slots %d", report.Schema, report.Slots)
	}

	st := m.Stats()
	if st.States[StateDone] != 1 || st.TerminalSlots != 20_000 {
		t.Fatalf("stats after completion: %+v", st)
	}
}

// TestManagerDeterminism is the subsystem's acceptance contract: a job
// run through the service yields a final report byte-identical to the
// same configuration run directly through locman.SimulateNetworkSharded
// and encoded the way pcnsim -json encodes it.
func TestManagerDeterminism(t *testing.T) {
	spec := testSpec()
	spec.SnapshotEvery = 500
	spec.Faults = &locman.FaultPlan{UpdateLoss: 0.1}

	m := New(Options{QueueDepth: 4, Workers: 2})
	defer m.Shutdown(context.Background())
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := waitTerminal(t, m, v.ID); got.State != StateDone {
		t.Fatalf("state = %s (%s), want done", got.State, got.Error)
	}
	viaService, err := m.Result(v.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}

	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatalf("NetworkConfig: %v", err)
	}
	metrics, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		t.Fatalf("SimulateNetworkSharded: %v", err)
	}
	var direct bytes.Buffer
	enc := json.NewEncoder(&direct)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(metrics)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(viaService, direct.Bytes()) {
		t.Fatalf("service report diverged from direct run:\nservice %d bytes\ndirect  %d bytes",
			len(viaService), direct.Len())
	}
}

// TestManagerQueueBackpressure fills the bounded queue with a single
// stalled worker and checks overflow is rejected with ErrQueueFull —
// never accepted into unbounded growth — and that every accepted job
// still completes once the worker unblocks.
func TestManagerQueueBackpressure(t *testing.T) {
	const depth = 4
	// One worker, pinned down by a deliberately slow first job.
	m := New(Options{QueueDepth: depth, Workers: 1})
	defer m.Shutdown(context.Background())

	slow := testSpec()
	slow.Terminals = 200
	slow.Slots = 2_000_000
	blocker, err := m.Submit(slow)
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	// Wait until the worker has picked the blocker up, so the queue is
	// genuinely empty before the fill.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := m.Get(blocker.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	var accepted []string
	for i := 0; i < depth; i++ {
		v, err := m.Submit(testSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		accepted = append(accepted, v.ID)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.QueueDepth != depth || st.QueueCap != depth {
		t.Fatalf("queue stats %d/%d, want %d/%d", st.QueueDepth, st.QueueCap, depth, depth)
	}

	// Unblock and drain: every accepted job completes.
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	if v := waitTerminal(t, m, blocker.ID); v.State != StateCancelled {
		t.Fatalf("blocker state = %s, want cancelled", v.State)
	}
	for _, id := range accepted {
		if v := waitTerminal(t, m, id); v.State != StateDone {
			t.Fatalf("job %s state = %s (%s), want done", id, v.State, v.Error)
		}
	}
}

// TestManagerCancelRunning is the cancel-while-running race test: many
// concurrent cancellations against a job mid-simulation must produce
// exactly one clean queued→running→cancelled lifecycle, promptly.
// Run under -race this also exercises the manager's locking against the
// worker transitions.
func TestManagerCancelRunning(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())

	big := testSpec()
	big.Terminals = 1_000
	big.Slots = 50_000_000
	v, err := m.Submit(big)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := m.Get(v.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Hammer Cancel from several goroutines at once.
	start := time.Now()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := m.Cancel(v.ID)
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Cancel: %v", err)
		}
	}
	final := waitTerminal(t, m, v.ID)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if final.State != StateCancelled || final.Error != "" {
		t.Fatalf("final state = %s (%q), want cancelled with no error", final.State, final.Error)
	}
}

// TestManagerCancelColsEngine is TestManagerCancelRunning on the
// columnar engine: a running cols job must observe cancellation within
// one cohort block and land in the cancelled state through the service,
// inside the same two-second promise the other engines honour.
func TestManagerCancelColsEngine(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())

	big := testSpec()
	big.Engine = "cols"
	// A population wider than one cohort and a slot count deep enough
	// that the run cannot finish first.
	big.Terminals = 10_000
	big.Slots = 50_000_000
	v, err := m.Submit(big)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := m.Get(v.ID)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitTerminal(t, m, v.ID)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want < 2s", elapsed)
	}
	if final.State != StateCancelled || final.Error != "" {
		t.Fatalf("final state = %s (%q), want cancelled with no error", final.State, final.Error)
	}
}

// TestManagerCancelQueued cancels a job before any worker touches it.
func TestManagerCancelQueued(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())

	slow := testSpec()
	slow.Terminals = 200
	slow.Slots = 2_000_000
	blocker, err := m.Submit(slow)
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	queued, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled immediately", got.State)
	}
	// Idempotent: cancelling again changes nothing.
	if again, err := m.Cancel(queued.ID); err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	waitTerminal(t, m, blocker.ID)
}

// TestManagerDeadline checks the per-job deadline: a job that cannot
// finish inside timeout_sec fails with a deadline error.
func TestManagerDeadline(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())

	spec := testSpec()
	spec.Terminals = 1_000
	spec.Slots = 50_000_000
	spec.TimeoutSec = 0.2
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitTerminal(t, m, v.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("final state = %s (%q), want failed with deadline error", final.State, final.Error)
	}
}

// TestManagerFailedJob checks that a job the engine refuses surfaces as
// a failed job carrying the engine's error, not a wedged worker. Submit
// refuses such a spec up front with that same error, so the job enters
// the way it still can: from a journal that accepted it under older
// rules.
func TestManagerFailedJob(t *testing.T) {
	spec := testSpec()
	d := 60
	spec.Threshold = &d // exceeds the engine's MaxThreshold default of 50
	const want = "sim: threshold 60 exceeds MaxThreshold 50"

	live := New(Options{QueueDepth: 4, Workers: 1})
	defer live.Shutdown(context.Background())
	if _, err := live.Submit(spec); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Submit: err = %v, want containing %q", err, want)
	}

	dir := t.TempDir()
	jl, _, err := OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(Record{Kind: KindSubmit, Job: "j000001", Spec: &spec, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	final := waitTerminal(t, m, "j000001")
	if final.State != StateFailed || !strings.Contains(final.Error, want) {
		t.Fatalf("final state = %s (%q), want failed with %q", final.State, final.Error, want)
	}
}

// TestManagerSubmitValidation checks malformed specs are rejected at the
// door with enumerating errors.
func TestManagerSubmitValidation(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1})
	defer m.Shutdown(context.Background())
	for _, tc := range []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"zero terminals", func(s *Spec) { s.Terminals = 0 }, "terminals"},
		{"zero slots", func(s *Spec) { s.Slots = 0 }, "slots"},
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "shards"},
		{"negative timeout", func(s *Spec) { s.TimeoutSec = -1 }, "timeout_sec"},
		{"bad model", func(s *Spec) { s.Model = "3d" }, "valid models"},
		{"bad engine", func(s *Spec) { s.Engine = "warp" }, "valid engines"},
		{"bad partition", func(s *Spec) { s.Partition = "spiral" }, "valid schemes"},
		{"bad probabilities", func(s *Spec) { s.MoveProb = 0.9; s.CallProb = 0.9 }, ""},
	} {
		spec := testSpec()
		tc.mutate(&spec)
		_, err := m.Submit(spec)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestManagerShutdownCancelsQueued checks shutdown semantics: queued
// jobs are cancelled, in-flight jobs get the drain window, and further
// submissions are refused.
func TestManagerShutdownCancelsQueued(t *testing.T) {
	m := New(Options{QueueDepth: 8, Workers: 1})

	slow := testSpec()
	slow.Terminals = 1_000
	slow.Slots = 50_000_000
	running, err := m.Submit(slow)
	if err != nil {
		t.Fatalf("Submit running: %v", err)
	}
	queued, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}

	// Give the worker a moment to pick up the slow job, then shut down
	// with an immediate drain deadline: the running job must be
	// cancelled, not awaited.
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, _ := m.Get(running.ID)
		if v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: err = %v, want DeadlineExceeded (forced cancel)", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v", elapsed)
	}

	if v, _ := m.Get(queued.ID); v.State != StateCancelled {
		t.Fatalf("queued job state = %s, want cancelled", v.State)
	}
	if v, _ := m.Get(running.ID); v.State != StateCancelled {
		t.Fatalf("running job state = %s, want cancelled", v.State)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: err = %v, want ErrShuttingDown", err)
	}
}

// TestManagerConcurrentLoad pushes 32 concurrent jobs through a small
// pool — the sustained-throughput acceptance shape — and checks every
// one completes with a coherent final stats picture.
func TestManagerConcurrentLoad(t *testing.T) {
	const n = 32
	m := New(Options{QueueDepth: n, Workers: 4})
	defer m.Shutdown(context.Background())

	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		spec := testSpec()
		spec.Seed = uint64(i + 1)
		spec.Shards = 1
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := waitTerminal(t, m, id); v.State != StateDone {
			t.Fatalf("job %s state = %s (%s)", id, v.State, v.Error)
		}
	}
	st := m.Stats()
	if st.States[StateDone] != n {
		t.Fatalf("done count = %d, want %d", st.States[StateDone], n)
	}
	if want := int64(n * 10 * 2_000); st.TerminalSlots != want {
		t.Fatalf("TerminalSlots = %d, want %d", st.TerminalSlots, want)
	}
	if views := m.List(); len(views) != n {
		t.Fatalf("List returned %d jobs, want %d", len(views), n)
	}
}
