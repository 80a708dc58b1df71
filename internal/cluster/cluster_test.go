package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/locman"
)

// testSpec is a deliberately awkward distributed workload: a population
// that does not divide evenly by the shard count, dynamic thresholds,
// fault injection and telemetry snapshots — every merge-sensitive
// feature at once.
func testSpec() jobs.Spec {
	return jobs.Spec{
		Model:           "2d",
		MoveProb:        0.2,
		CallProb:        0.05,
		UpdateCost:      100,
		PollCost:        10,
		MaxDelay:        2,
		Dynamic:         true,
		ReoptimizeEvery: 100,
		Faults: &locman.FaultPlan{
			UpdateLoss:    0.2,
			PollLoss:      0.1,
			ReplyLoss:     0.05,
			UpdateRetries: 2,
		},
		Terminals:     23,
		Slots:         400,
		Shards:        5,
		SnapshotEvery: 100,
		Seed:          42,
		Engine:        "fast", // the retired name: resolves to cols on every node
	}
}

// startWorker boots one worker behind an httptest server, optionally
// wrapping its slice handler (to inject deaths and corruption), and
// registers it with the coordinator's registry.
func startWorker(t *testing.T, reg *Registry, wrap func(http.Handler) http.Handler) *Worker {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	w, err := NewWorker(WorkerOptions{
		Join:        "http://coordinator.invalid",
		Advertise:   ts.URL,
		StreamEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(w.SliceHandler())
	if wrap != nil {
		h = wrap(h)
	}
	mux.Handle("/api/v1/slices", h)
	if _, err := reg.Register(ts.URL); err != nil {
		t.Fatal(err)
	}
	return w
}

// runManagerJob submits one spec to a fresh manager and returns the
// stored result bytes.
func runManagerJob(t *testing.T, opts jobs.Options, spec jobs.Spec) []byte {
	t.Helper()
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 4
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	mgr := jobs.New(opts)
	if opts.DataDir != "" {
		if err := mgr.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done, err := mgr.Done(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", v.ID)
	}
	got, err := mgr.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateDone {
		t.Fatalf("job %s finished %s: %s", v.ID, got.State, got.Error)
	}
	raw, err := mgr.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestClusterByteIdentity is the differential test the whole subsystem
// hangs off: a job run through a coordinator and three workers must
// produce result bytes identical to the same job run by a plain
// single-node manager (which is itself byte-identical to pcnsim -json).
func TestClusterByteIdentity(t *testing.T) {
	spec := testSpec()
	single := runManagerJob(t, jobs.Options{}, spec)

	reg := NewRegistry(time.Minute, nil)
	for i := 0; i < 3; i++ {
		startWorker(t, reg, nil)
	}
	coord := NewCoordinator(reg, Options{LeaseTimeout: 10 * time.Second})
	dist := runManagerJob(t, jobs.Options{Runner: coord}, spec)

	if !bytes.Equal(single, dist) {
		t.Fatalf("distributed report differs from single-node report:\nsingle: %d bytes\ndistributed: %d bytes",
			len(single), len(dist))
	}
	var partials, dispatches int64
	for _, n := range reg.Status() {
		partials += n.Partials
		dispatches += n.Dispatches
	}
	if partials != 3 || dispatches != 3 {
		t.Fatalf("expected 3 clean leases across 3 workers, got %d dispatches, %d partials",
			dispatches, partials)
	}
	if st := coord.Status(); len(st.Leases) != 0 || st.Releases != 0 {
		t.Fatalf("leases should be retired cleanly: %+v", st)
	}
}

// dieOnce aborts the first slice stream mid-flight — one progress frame,
// then the connection drops, the stand-in for a worker killed mid-job —
// and serves normally afterwards (the worker restarted).
func dieOnce(next http.Handler) http.Handler {
	var died atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if died.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, `{"type":"progress"}`)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// TestClusterWorkerLossByteIdentity kills one worker mid-slice and
// requires graceful degradation: the slice is re-leased (visible as a
// KindLease journal record and a bumped release counter) and the final
// report is still byte-identical to the single-node run.
func TestClusterWorkerLossByteIdentity(t *testing.T) {
	spec := testSpec()
	single := runManagerJob(t, jobs.Options{}, spec)

	reg := NewRegistry(time.Minute, nil)
	startWorker(t, reg, dieOnce)
	startWorker(t, reg, nil)
	startWorker(t, reg, nil)
	coord := NewCoordinator(reg, Options{LeaseTimeout: 10 * time.Second})
	dir := t.TempDir()
	dist := runManagerJob(t, jobs.Options{Runner: coord, DataDir: dir}, spec)

	if !bytes.Equal(single, dist) {
		t.Fatal("report after worker loss differs from single-node report")
	}
	if st := coord.Status(); st.Releases != 1 {
		t.Fatalf("expected exactly one re-leased slice, got %d", st.Releases)
	}

	// The journal carries the full lease history: one dispatch per
	// lease (3 initial + 1 re-lease) and one lease record for the death.
	data, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := jobs.ReplayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var nDispatch, nLease int
	for _, rec := range recs {
		switch rec.Kind {
		case jobs.KindDispatch:
			nDispatch++
		case jobs.KindLease:
			nLease++
			if rec.Error == "" {
				t.Fatal("lease record without a failure reason")
			}
			if rec.Hi <= rec.Lo {
				t.Fatalf("lease record with slice [%d,%d)", rec.Lo, rec.Hi)
			}
		}
	}
	if nDispatch != 4 || nLease != 1 {
		t.Fatalf("journal has %d dispatch and %d lease records, want 4 and 1", nDispatch, nLease)
	}

	// A restarted manager must replay the lease-history records without
	// complaint and restore the distributed result byte-for-byte.
	mgr2 := jobs.New(jobs.Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := mgr2.Recover(); err != nil {
		t.Fatalf("recovery over a journal with lease records: %v", err)
	}
	views := mgr2.List()
	if len(views) != 1 || views[0].State != jobs.StateDone {
		t.Fatalf("recovered job table: %+v", views)
	}
	restored, err := mgr2.Result(views[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, dist) {
		t.Fatal("recovered result differs from the distributed run's bytes")
	}
}

// corruptRev rewrites the spec revision on the first partial a worker
// delivers — the stale-worker scenario satellite 1 demands a typed
// rejection for.
func corruptRev(next http.Handler) http.Handler {
	var corrupted atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(rec.Code)
		for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
			var f SliceFrame
			if json.Unmarshal(line, &f) == nil && f.Type == FramePartial && f.Partial != nil &&
				corrupted.CompareAndSwap(false, true) {
				f.Partial.SpecRev = "r0000000000000000"
				line, _ = json.Marshal(f)
			}
			w.Write(append(line, '\n'))
		}
	})
}

// TestClusterRejectsWrongRevisionPartial drives a worker that returns a
// partial for the wrong Spec revision straight into the coordinator and
// requires the typed wire-layer error.
func TestClusterRejectsWrongRevisionPartial(t *testing.T) {
	reg := NewRegistry(time.Minute, nil)
	startWorker(t, reg, corruptRev)
	coord := NewCoordinator(reg, Options{LeaseTimeout: 10 * time.Second, MaxAttempts: 1})

	var journaled []jobs.Record
	rc := jobs.RunContext{
		ID:       "j-rev",
		Spec:     testSpec(),
		Progress: &telemetry.Progress{},
		Journal:  func(rec jobs.Record) { journaled = append(journaled, rec) },
	}
	_, err := coord.Run(context.Background(), rc)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("want *MismatchError, got %v", err)
	}
	if me.Field != "spec_rev" || me.Job != "j-rev" || me.Got != "r0000000000000000" {
		t.Fatalf("wrong mismatch detail: %+v", me)
	}

	// The rejected lease must be journaled with the mismatch as its
	// failure reason, after its dispatch record.
	var sawDispatch, sawLease bool
	for _, rec := range journaled {
		switch rec.Kind {
		case jobs.KindDispatch:
			sawDispatch = true
		case jobs.KindLease:
			sawLease = true
			if !strings.Contains(rec.Error, "spec_rev") {
				t.Fatalf("lease record does not carry the mismatch reason: %+v", rec)
			}
		}
	}
	if !sawDispatch || !sawLease {
		t.Fatalf("journal missing dispatch/lease records: %+v", journaled)
	}
}

// TestClusterRecoversMergedRejection covers the same wrong-revision
// worker under a coordinator allowed to retry: the bad delivery is
// rejected, the slice re-leased, and the job still completes with
// byte-identical output because dieOnce-style corruption only strikes
// once.
func TestClusterRecoversFromWrongRevisionPartial(t *testing.T) {
	spec := testSpec()
	single := runManagerJob(t, jobs.Options{}, spec)

	reg := NewRegistry(time.Minute, nil)
	startWorker(t, reg, corruptRev)
	coord := NewCoordinator(reg, Options{LeaseTimeout: 10 * time.Second})
	dist := runManagerJob(t, jobs.Options{Runner: coord}, spec)
	if !bytes.Equal(single, dist) {
		t.Fatal("report after a rejected partial differs from single-node report")
	}
	if st := coord.Status(); st.Releases == 0 {
		t.Fatal("the mismatched delivery should have burned a lease")
	}
}

// TestWorkerRejectsSkewedLease checks the worker-side half of the
// revision handshake: a lease whose revision does not match the shipped
// spec is refused before any simulation starts.
func TestWorkerRejectsSkewedLease(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Join: "http://c.invalid", Advertise: "http://w.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	for name, mutate := range map[string]func(*SliceRequest){
		"wrong-schema":   func(sr *SliceRequest) { sr.Schema = 99 },
		"wrong-revision": func(sr *SliceRequest) { sr.SpecRev = "r0000000000000000" },
		"stale-spec":     func(sr *SliceRequest) { sr.Spec.Seed++ },
		"bad-slice":      func(sr *SliceRequest) { sr.Lo, sr.Hi = 4, 2 },
	} {
		sr := SliceRequest{
			Schema: WireSchema, Job: "j1", Spec: spec, Shards: 5, Lo: 0, Hi: 2,
		}
		sr.SpecRev = SpecRevision(sr.Spec, sr.Shards)
		mutate(&sr)
		body, _ := json.Marshal(sr)
		req := httptest.NewRequest(http.MethodPost, "/api/v1/slices", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		w.SliceHandler().ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
}

// TestWorkerRejectsOversizedOrUnknownLease: a lease body past the
// limit is refused with 413 and one with a field SliceRequest lacks with
// 400, both before any simulation starts.
func TestWorkerRejectsOversizedOrUnknownLease(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Join: "http://c.invalid", Advertise: "http://w.invalid"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"job":"` + strings.Repeat("a", maxSliceRequest) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown-field", `{"schema":1,"job":"j1","priority":9}`, http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/slices", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		w.SliceHandler().ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
}

func TestRegistry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	reg := NewRegistry(5*time.Second, clock)

	if _, err := reg.Register("not-a-url"); err == nil {
		t.Fatal("registered a non-URL address")
	}
	if _, err := reg.Register("ftp://x"); err == nil {
		t.Fatal("registered a non-http address")
	}
	id1, err := reg.Register("http://a:1")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := reg.Register("http://b:1")
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatalf("distinct addresses share id %s", id1)
	}
	if again, _ := reg.Register("http://a:1"); again != id1 {
		t.Fatalf("re-registering the same address got %s, want %s", again, id1)
	}
	if err := reg.Heartbeat("n999"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("heartbeat for unknown node: %v", err)
	}

	if alive := reg.Alive(); len(alive) != 2 {
		t.Fatalf("alive: %v", alive)
	}
	// Only node 2 heartbeats across the timeout horizon.
	now = now.Add(4 * time.Second)
	if err := reg.Heartbeat(id2); err != nil {
		t.Fatal(err)
	}
	now = now.Add(3 * time.Second)
	alive := reg.Alive()
	if len(alive) != 1 || alive[0].ID != id2 {
		t.Fatalf("alive after silence: %v", alive)
	}
	st := reg.Status()
	if len(st) != 2 || st[0].Alive || !st[1].Alive {
		t.Fatalf("status: %+v", st)
	}
	if st[0].SinceHeartbeatMS != 7000 {
		t.Fatalf("silent node heartbeat age %dms, want 7000", st[0].SinceHeartbeatMS)
	}
}

// TestWorkerJoinLifecycle runs the real register/heartbeat loop against
// a fake coordinator that forgets the node once, exercising the
// re-register path.
func TestWorkerJoinLifecycle(t *testing.T) {
	var registers, beats atomic.Int64
	var forget atomic.Bool
	forget.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		n := registers.Add(1)
		json.NewEncoder(w).Encode(RegisterResponse{Schema: WireSchema, ID: fmt.Sprintf("n%03d", n)})
	})
	mux.HandleFunc("POST /api/v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if forget.CompareAndSwap(true, false) {
			http.Error(w, "unknown node", http.StatusNotFound)
			return
		}
		beats.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := NewWorker(WorkerOptions{
		Join: ts.URL, Advertise: "http://me:1", HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if registers.Load() >= 2 && beats.Load() >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if registers.Load() < 2 {
		t.Fatalf("worker never re-registered after the 404: %d registrations", registers.Load())
	}
	if beats.Load() < 1 {
		t.Fatal("worker never heartbeat successfully")
	}
	if w.ID() == "" {
		t.Fatal("worker has no id after joining")
	}
}

func TestSpecRevision(t *testing.T) {
	spec := testSpec()
	base := SpecRevision(spec, 5)
	if base != SpecRevision(testSpec(), 5) {
		t.Fatal("revision not deterministic")
	}
	if base == SpecRevision(spec, 6) {
		t.Fatal("revision ignores the shard count")
	}
	bumped := spec
	bumped.Seed++
	if base == SpecRevision(bumped, 5) {
		t.Fatal("revision ignores the spec")
	}
	if len(base) != 17 || base[0] != 'r' {
		t.Fatalf("revision %q has unexpected shape", base)
	}
}

// TestPickNodeSteersAroundLastFailure: a kill -9'd worker keeps looking
// alive until its heartbeats age out, so a re-lease must prefer any other
// node over the one that just failed the slice — falling back to it only
// when it is the last node standing.
func TestPickNodeSteersAroundLastFailure(t *testing.T) {
	reg := NewRegistry(time.Minute, nil)
	a, err := reg.Register("http://10.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register("http://10.0.0.2:8080")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(reg, Options{})

	// b is busier, a is idle: unconstrained pick takes a.
	c.inflight[b] = 1
	if got := c.pickNode(""); got.ID != a {
		t.Fatalf("pickNode(\"\") = %s, want idle node %s", got.ID, a)
	}
	// But if a just failed the slice, the re-lease goes to b anyway.
	if got := c.pickNode(a); got.ID != b {
		t.Fatalf("pickNode(avoid=%s) = %s, want %s", a, got.ID, b)
	}
	// With a as the only node, avoidance yields: better a suspect node
	// than no dispatch at all.
	reg2 := NewRegistry(time.Minute, nil)
	only, err := reg2.Register("http://10.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(reg2, Options{})
	if got := c2.pickNode(only); got.ID != only {
		t.Fatalf("pickNode(avoid=only) = %q, want %s", got.ID, only)
	}
}
