package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/results"
	"repro/locman"
)

// heldResult reports what the manager keeps for a job's result: the
// in-memory report bytes, and the journal line's offset and length.
func heldResult(m *Manager, id string) ([]byte, int64, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	return j.resultJSON, j.resultOff, j.resultLen
}

// submitSeeds submits one testSpec per seed and waits for each to finish
// done, returning the ids and specs in submission order.
func submitSeeds(t *testing.T, m *Manager, seeds ...uint64) ([]string, []Spec) {
	t.Helper()
	var ids []string
	var specs []Spec
	for _, seed := range seeds {
		spec := testSpec()
		spec.Seed = seed
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		specs = append(specs, spec)
	}
	for _, id := range ids {
		if v := waitTerminal(t, m, id); v.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, v.State, v.Error)
		}
	}
	return ids, specs
}

// TestManagerResultFromJournal: a journaled done job holds no copy of
// its report, and Result reads back bytes identical to the direct engine
// run — live, after Shutdown has closed the journal, and after Recover
// on the same directory.
func TestManagerResultFromJournal(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	ids, specs := submitSeeds(t, m1, 1, 2)
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = referenceResult(t, spec)
	}
	check := func(phase string, m *Manager) {
		t.Helper()
		for i, id := range ids {
			raw, _, n := heldResult(m, id)
			if raw != nil || n == 0 {
				t.Errorf("%s: job %s holds %d report bytes and a %d-byte journal line, want none and a line",
					phase, id, len(raw), n)
			}
			got, err := m.Result(id)
			if err != nil {
				t.Fatalf("%s: Result(%s): %v", phase, id, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: job %s result differs from the engine reference", phase, id)
			}
		}
	}
	check("live", m1)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("after shutdown", m1)

	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	check("recovered", m2)
}

// TestManagerResultConcurrentReads: results are read back from the
// journal while other jobs are still appending to it, from one goroutine
// per job, and each is byte-identical to the engine reference.
func TestManagerResultConcurrentReads(t *testing.T) {
	const n = 16
	m := New(Options{QueueDepth: n, Workers: 4, DataDir: t.TempDir()})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	specs := make([]Spec, n)
	want := make([][]byte, n)
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = uint64(i + 1)
		specs[i].Shards = 1
		want[i] = referenceResult(t, specs[i])
	}
	var wg sync.WaitGroup
	for i, spec := range specs {
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done, err := m.Done(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			<-done
			got, err := m.Result(id)
			if err != nil {
				t.Errorf("Result(%s): %v", id, err)
				return
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("job %s result differs from the engine reference", id)
			}
		}(i, v.ID)
	}
	wg.Wait()
}

// TestManagerResultCorruptLine: one flipped byte inside a done job's
// result line makes Result fail with ErrResultUnreadable rather than
// return any other bytes; the other jobs' results stay readable.
func TestManagerResultCorruptLine(t *testing.T) {
	dir := t.TempDir()
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	ids, specs := submitSeeds(t, m, 1, 2)

	_, off, n := heldResult(m, ids[0])
	path := filepath.Join(dir, "journal.ndjson")
	data := mustRead(t, path)
	data[off+n/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := m.Result(ids[0])
	if !errors.Is(err, ErrResultUnreadable) || got != nil {
		t.Fatalf("Result of the damaged line = %d bytes, %v; want ErrResultUnreadable", len(got), err)
	}
	other, err := m.Result(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(other, referenceResult(t, specs[1])) {
		t.Error("undamaged job's result differs from the engine reference")
	}
	// A line that is intact but belongs to another job is refused too.
	_, off1, n1 := heldResult(m, ids[1])
	if _, err := readResult(path, off1, n1, ids[0]); err == nil {
		t.Error("readResult accepted another job's result line")
	}
}

// gateRunner runs jobs on the local engine, but only after release
// closes, so a test can act while a job is mid-run.
type gateRunner struct {
	started chan struct{}
	release chan struct{}
}

func (g *gateRunner) Run(ctx context.Context, rc RunContext) (*locman.NetworkMetrics, error) {
	close(g.started)
	<-g.release
	cfg, err := rc.Spec.NetworkConfig()
	if err != nil {
		return nil, err
	}
	return locman.SimulateNetworkShardedCtx(ctx, cfg, rc.Spec.Slots, rc.Spec.Shards)
}

// TestManagerResultMemoryWhenAppendFails: when the result record cannot
// be journaled, the done job keeps its bytes in memory and Result still
// serves them.
func TestManagerResultMemoryWhenAppendFails(t *testing.T) {
	g := &gateRunner{started: make(chan struct{}), release: make(chan struct{})}
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: t.TempDir(), Runner: g})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	spec := testSpec()
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-g.started
	// Close the journal's file under the running job: every later
	// append fails.
	m.mu.Lock()
	m.journal.f.Close()
	m.mu.Unlock()
	close(g.release)
	if got := waitTerminal(t, m, v.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}
	raw, _, n := heldResult(m, v.ID)
	if raw == nil || n != 0 {
		t.Fatalf("job holds %d report bytes and a %d-byte journal line; want the bytes in memory", len(raw), n)
	}
	got, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, referenceResult(t, spec)) {
		t.Error("in-memory result differs from the engine reference")
	}
	if st := m.Stats(); st.JournalErrors == 0 {
		t.Error("failed appends were not counted")
	}
}

// TestManagerRecoverAfterSIGKILL: a durable manager writes its results
// table only at Shutdown, so a data directory copied while it runs —
// what a SIGKILL leaves — holds none of the finished jobs' rows. Recover
// on the copy rebuilds every one of them from the journal, answers a
// group-by query byte-identically to the live store, and saves them.
func TestManagerRecoverAfterSIGKILL(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "results.table.json")
	live, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: live})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m1.Shutdown(context.Background())
	ids, specs := submitSeeds(t, m1, 1, 2, 3)
	for _, id := range ids {
		waitRow(t, live, id)
	}
	const req = `{"group_by":["seed"],"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"},{"op":"p95","column":"delay_p95"}]}`
	want := queryJSON(t, live, req)

	killed := t.TempDir()
	copyDir(t, dir, killed)
	stale, err := results.Open(filepath.Join(killed, "results.table.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if stale.Has(id) {
			t.Fatalf("the copied table file already holds job %s", id)
		}
	}

	store, err := results.Open(filepath.Join(killed, "results.table.json"))
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: killed, Results: store})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st := m2.Stats()
	if st.ResultsBackfilled != int64(len(ids)) || st.ResultRows != int64(len(ids)) || st.ResultsErrors != 0 {
		t.Fatalf("recovery stats = %+v, want %d rows, all backfilled", st, len(ids))
	}
	if got := queryJSON(t, store, req); got != want {
		t.Fatalf("recovered store answers differently:\nlive:      %s\nrecovered: %s", want, got)
	}
	for i, id := range ids {
		got, err := m2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, referenceResult(t, specs[i])) {
			t.Errorf("recovered job %s result differs from the engine reference", id)
		}
	}
	// Recover saved the backfilled rows, so the next boot loads them.
	saved, err := results.Open(filepath.Join(killed, "results.table.json"))
	if err != nil {
		t.Fatal(err)
	}
	if saved.Len() != len(ids) {
		t.Fatalf("table file after recovery holds %d rows, want %d", saved.Len(), len(ids))
	}
}

// BenchmarkDoneJobHeap measures the live heap each done job costs the
// manager, with its report served from the journal (journal) and held in
// memory (memory). Each iteration finishes doneJobHeapJobs jobs shaped
// like the service benchmark's (2000 terminals × 64 slots); the figure
// is the heap retained after a GC, per job, as B/job.
//
//	go test ./internal/jobs -run '^$' -bench DoneJobHeap -benchtime 1x
func BenchmarkDoneJobHeap(b *testing.B) {
	for _, journaled := range []bool{true, false} {
		name := "memory"
		if journaled {
			name = "journal"
		}
		b.Run(name, func(b *testing.B) {
			var perJob float64
			for i := 0; i < b.N; i++ {
				perJob = doneJobHeap(b, journaled)
			}
			b.ReportMetric(perJob, "B/job")
		})
	}
}

const doneJobHeapJobs = 500

func doneJobHeap(b *testing.B, journaled bool) float64 {
	opts := Options{QueueDepth: doneJobHeapJobs, Workers: 1}
	if journaled {
		opts.DataDir = b.TempDir()
	}
	d := 3
	spec := Spec{
		Model: "2d", MoveProb: 0.05, CallProb: 0.01, UpdateCost: 100, PollCost: 10,
		MaxDelay: 3, Threshold: &d, Terminals: 2000, Slots: 64, Shards: 1,
	}
	before := liveHeap()
	m := New(opts)
	if err := m.Recover(); err != nil {
		b.Fatal(err)
	}
	var ids []string
	for k := 0; k < doneJobHeapJobs; k++ {
		spec.Seed = uint64(k + 1)
		v, err := m.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		done, _ := m.Done(id)
		<-done
		if v, _ := m.Get(id); v.State != StateDone {
			b.Fatalf("job %s ended %s (%s)", id, v.State, v.Error)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(m)
	m.Shutdown(context.Background())
	return float64(after-before) / doneJobHeapJobs
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
