package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

// The traced run's second half: a replay that calls each layer's public
// functions from outside, in the order jobs.Manager.runSpec calls them,
// against a data directory the benchmark owns (a copy of the workload's
// template, so journal and table have the workload's size). Layers a
// workload's jobs never reach — the cluster path on a single node,
// checkpoints without a cadence — are probed on the workload's own spec
// so every layer metric exists for every workload; the rollup's
// coverage counts only the layers on the workload's path.

const (
	// replaysPerSpec is how many jobs the replay runs per distinct spec.
	replaysPerSpec = 10
	// probeReps is how many times each probe repeats.
	probeReps = 3
)

type replayer struct {
	w    workload
	prep *prepared
	tr   *tracer
	dir  string

	jl    *jobs.Journal
	store *results.Store

	mu         sync.Mutex
	sinkErr    error
	partials   []float64 // bytes per job, summed over slices
	ckptBytes  []float64
	ckptCounts []float64
	frames     int
	seq        int
}

func newReplayer(w workload, prep *prepared, tr *tracer, dir string) (*replayer, error) {
	r := &replayer{w: w, prep: prep, tr: tr, dir: dir, store: results.NewStore()}
	if prep.seedDir != "" {
		if err := copyDir(prep.seedDir, dir); err != nil {
			return nil, err
		}
		store, err := results.Open(filepath.Join(dir, tableFile))
		if err != nil {
			return nil, err
		}
		r.store = store
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, err
	}
	jl, _, err := jobs.OpenJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	r.jl = jl
	return r, nil
}

func (r *replayer) nextID(prefix string) string {
	r.seq++
	return fmt.Sprintf("%s%06d", prefix, r.seq)
}

// replay runs replaysPerSpec jobs of every spec, with a results query
// after every queryEvery-th job like the workload's clients.
func (r *replayer) replay(ctx context.Context) error {
	n := 0
	for rep := 0; rep < replaysPerSpec; rep++ {
		for k := range r.prep.specs {
			if err := r.job(ctx, k, r.nextID("r")); err != nil {
				return err
			}
			n++
			if n%r.w.queryEvery == 0 {
				if err := r.query(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// job replays one job of spec k: decode, validate, journal submit and
// start, simulate, encode, journal result and done, flatten, ingest.
func (r *replayer) job(ctx context.Context, k int, id string) error {
	tr := r.tr
	root := tr.begin(0, "job", id)
	defer tr.end(root)
	var spec jobs.Spec
	err := tr.timed(root, "spec.decode", id, func() error {
		dec := json.NewDecoder(bytes.NewReader(r.prep.bodies[k]))
		dec.DisallowUnknownFields()
		return dec.Decode(&spec)
	})
	if err == nil {
		err = tr.timed(root, "spec.validate", id, spec.Validate)
	}
	if err == nil {
		err = r.append(root, jobs.Record{Kind: jobs.KindSubmit, Job: id, Spec: &spec},
			jobs.Record{Kind: jobs.KindState, Job: id, From: jobs.StateQueued, To: jobs.StateRunning})
	}
	if err != nil {
		return err
	}
	var m *locman.NetworkMetrics
	if r.w.cluster {
		m, err = r.clusterRun(ctx, root, id, spec)
	} else {
		m, err = r.engineRun(ctx, root, "engine.run", id, spec, r.w.checkpointEvery)
	}
	if err != nil {
		return err
	}
	var report *locman.Report
	var raw []byte
	err = tr.timed(root, "report.encode", id, func() (err error) {
		report = locman.NewReport(m)
		raw, err = encodeReport(report)
		return err
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, r.prep.refs[k]) {
		return fmt.Errorf("replayed job %s: report differs from the reference of spec %d", id, k)
	}
	err = r.append(root, jobs.Record{Kind: jobs.KindResult, Job: id, Result: raw},
		jobs.Record{Kind: jobs.KindState, Job: id, From: jobs.StateRunning, To: jobs.StateDone})
	if err != nil {
		return err
	}
	var row results.Row
	err = tr.timed(root, "results.flatten", id, func() (err error) {
		row, err = jobs.ResultRow(id, spec, report)
		return err
	})
	if err != nil {
		return err
	}
	return tr.timed(root, "results.ingest", id, func() error { return r.store.Ingest(row) })
}

// append journals records one Append call each, as the manager does.
func (r *replayer) append(parent int64, recs ...jobs.Record) error {
	for _, rec := range recs {
		if err := r.tr.timed(parent, "journal.append", rec.Job, func() error { return r.jl.Append(rec) }); err != nil {
			return err
		}
	}
	return nil
}

// query is POST /query's work without HTTP: decode, then evaluate.
func (r *replayer) query() error {
	return r.tr.timed(0, "results.query", "", func() error {
		req, err := results.DecodeRequest(queryBody)
		if err != nil {
			return err
		}
		_, err = r.store.Query(req)
		return err
	})
}

// engineRun runs spec on the in-process engine inside a span named
// name; with every > 0 it persists checkpoints at that cadence the way
// the manager does, as child spans.
func (r *replayer) engineRun(ctx context.Context, parent int64, name, id string, spec jobs.Spec, every int64) (*locman.NetworkMetrics, error) {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, err
	}
	cfg.Progress = &locman.Progress{} // the manager always attaches one
	run := r.tr.begin(parent, name, id)
	defer r.tr.end(run)
	if every == 0 {
		return locman.SimulateNetworkShardedCtx(ctx, cfg, spec.Slots, spec.Shards)
	}
	path := filepath.Join(r.dir, "checkpoints", id+".ckpt")
	count := 0
	m, err := locman.SimulateNetworkCheckpointed(ctx, cfg, spec.Slots, spec.Shards, every, func(cp *locman.Checkpoint) {
		var data []byte
		err := r.tr.timed(run, "checkpoint.encode", id, func() (err error) {
			data, err = locman.EncodeCheckpoint(cp)
			return err
		})
		if err == nil {
			err = r.tr.timed(run, "checkpoint.write", id, func() error { return writeAtomic(path, data) })
		}
		if err == nil && r.w.dataDir && r.w.checkpointEvery > 0 {
			// A checkpointing manager journals each checkpoint it writes.
			err = r.append(run, jobs.Record{Kind: jobs.KindCheckpoint, Job: id, Slot: cp.Slot})
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
		count++
		r.ckptBytes = append(r.ckptBytes, float64(len(data)))
	})
	if err == nil {
		err = r.sinkErr
	}
	r.ckptCounts = append(r.ckptCounts, float64(count))
	os.Remove(path) // the manager drops a job's checkpoint once it is terminal
	return m, err
}

// writeAtomic persists data the way the manager persists a checkpoint:
// temp file, fsync, rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// clusterRun is the coordinator's path without HTTP: one slice per
// worker run concurrently, each encoded as a worker ships it and decoded
// as the coordinator admits it, then the merge.
func (r *replayer) clusterRun(ctx context.Context, parent int64, id string, spec jobs.Spec) (*locman.NetworkMetrics, error) {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, err
	}
	cfg.Progress = &locman.Progress{} // as a worker attaches one per slice
	shards := spec.ResolvedShards()
	rev := cluster.SpecRevision(spec, shards)
	n := min(clusterWorkers, shards)
	parts := make([]*locman.Partial, n)
	sizes := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo, hi := i*shards/n, (i+1)*shards/n
			var p *locman.Partial
			var data []byte
			err := r.tr.timed(parent, "slice.run", id, func() (err error) {
				p, err = locman.SimulateNetworkSlice(ctx, cfg, spec.Slots, shards, lo, hi)
				return err
			})
			if err == nil {
				err = r.tr.timed(parent, "partial.encode", id, func() (err error) {
					data, err = locman.EncodePartial(p)
					return err
				})
			}
			if err == nil {
				doc := cluster.PartialDoc{Schema: cluster.WireSchema, Job: id, SpecRev: rev,
					Shards: shards, Lo: lo, Hi: hi, Data: data}
				err = r.tr.timed(parent, "partial.decode", id, func() (err error) {
					parts[i], err = doc.Decode()
					return err
				})
			}
			sizes[i], errs[i] = len(data), err
		}(i)
	}
	wg.Wait()
	total := 0
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total += sizes[i]
	}
	r.partials = append(r.partials, float64(total))
	var m *locman.NetworkMetrics
	err = r.tr.timed(parent, "merge", id, func() (err error) {
		m, err = locman.MergeNetworkPartials(cfg, spec.Slots, shards, parts)
		return err
	})
	return m, err
}

// directRuns times the library run pcnsim -json makes for the first
// spec, the base of job_over_direct. It runs straight after the load, in
// the heap the jobs left behind.
func (r *replayer) directRuns(ctx context.Context) error {
	for rep := 0; rep < probeReps; rep++ {
		err := r.tr.timed(0, "direct", r.nextID("d"), func() error {
			_, _, err := direct(ctx, r.prep.specs[0])
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probe runs the measurements the replay does not make on this
// workload, all on its first spec: engine set-up (a one-slot run),
// telemetry on versus off, and whichever of the single-node engine,
// checkpoint and cluster paths the workload's jobs do not take.
func (r *replayer) probe(ctx context.Context) error {
	spec := r.prep.specs[0]
	one, off, on := spec, spec, spec
	one.Slots = 1
	off.SnapshotEvery, on.SnapshotEvery = 0, 16
	run := func(name string, s jobs.Spec, every int64) func(string) error {
		return func(id string) error {
			_, err := r.engineRun(ctx, 0, name, id, s, every)
			return err
		}
	}
	steps := []func(id string) error{
		run("engine.setup", one, 0),
		run("telemetry.off", off, 0),
		func(id string) error {
			m, err := r.engineRun(ctx, 0, "telemetry.on", id, on, 0)
			if err == nil {
				r.frames = len(locman.NewReport(m).Snapshots)
			}
			return err
		},
	}
	if r.w.cluster {
		steps = append(steps, run("engine.run", spec, 0))
	} else {
		steps = append(steps, func(id string) error {
			_, err := r.clusterRun(ctx, 0, id, spec)
			return err
		})
	}
	if r.w.checkpointEvery == 0 {
		steps = append(steps, run("checkpoint.run", spec, spec.Slots/4))
	}
	for rep := 0; rep < probeReps; rep++ {
		id := r.nextID("p")
		for _, step := range steps {
			// Return the previous step's garbage first, so the peaks of
			// large probes do not stack in the process's memory.
			debug.FreeOSMemory()
			if err := step(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// lease times direct POST /api/v1/slices requests to a worker for the
// first slice of the first spec, from the request to the decoded partial
// frame.
func (r *replayer) lease(ctx context.Context, hc *http.Client, workerURL string) error {
	spec := r.prep.specs[0]
	shards := spec.ResolvedShards()
	for rep := 0; rep < probeReps; rep++ {
		id := r.nextID("l")
		body, err := json.Marshal(cluster.SliceRequest{
			Schema: cluster.WireSchema, Job: id, SpecRev: cluster.SpecRevision(spec, shards),
			Spec: spec, Shards: shards, Lo: 0, Hi: shards / min(clusterWorkers, shards),
		})
		if err != nil {
			return err
		}
		var doc *cluster.PartialDoc
		err = r.tr.timed(0, "lease", id, func() (err error) {
			doc, err = postSlice(ctx, hc, workerURL, body)
			return err
		})
		if err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		if _, err := doc.Decode(); err != nil {
			return fmt.Errorf("lease: %w", err)
		}
	}
	return nil
}

func postSlice(ctx context.Context, hc *http.Client, url string, body []byte) (*cluster.PartialDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/api/v1/slices", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("slice request: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<30) // the partial frame carries the whole slice
	for sc.Scan() {
		var f cluster.SliceFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, err
		}
		switch f.Type {
		case cluster.FramePartial:
			return f.Partial, nil
		case cluster.FrameError:
			return nil, fmt.Errorf("worker failed the slice: %s", f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("slice stream ended without a partial")
}

// recovery closes the journal and restarts a manager on copies of the
// bench-owned data directory: recover.replay times jobs.ReplayJournal on
// the journal file, recover.total the whole jobs.New + Recover with an
// empty in-memory results table, so Recover backfills every done job.
func (r *replayer) recovery(work string) (records int, err error) {
	if err := r.jl.Close(); err != nil {
		return 0, err
	}
	for rep := 0; rep < probeReps; rep++ {
		dir := filepath.Join(work, fmt.Sprintf("recover-%d", rep))
		if err := copyDir(r.dir, dir); err != nil {
			return 0, err
		}
		err := r.tr.timed(0, "recover.replay", "", func() error {
			f, err := os.Open(filepath.Join(dir, journalFile))
			if err != nil {
				return err
			}
			defer f.Close()
			recs, _, err := jobs.ReplayJournal(f)
			records = len(recs)
			return err
		})
		if err != nil {
			return 0, err
		}
		mgr := jobs.New(jobs.Options{DataDir: dir, Results: results.NewStore()})
		err = r.tr.timed(0, "recover.total", "", mgr.Recover)
		if serr := mgr.Shutdown(context.Background()); err == nil {
			err = serr
		}
		if err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return records, nil
}

// tableBytes is the size of the results table as persisted: the live
// file of a durable workload, or what Save writes for an in-memory one.
func (r *replayer) tableBytes() (int64, error) {
	path := filepath.Join(r.dir, tableFile)
	if r.prep.seedDir == "" {
		if err := r.store.Save(path); err != nil {
			return 0, err
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// durations returns the durations (ns) of spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfDurations returns the self times (ns) of spans named name.
func selfDurations(spans []span, self map[int64]int64, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.ID]))
		}
	}
	return out
}

// pathLayers are the layers a workload's job waits on between submit
// and result, whose rollup rows trace.coverage adds up. Results flatten
// and ingest run after the job is reported done, so they delay the next
// job (as queue wait) rather than this one.
func pathLayers(w workload) []string {
	layers := []string{"http.submit", "http.stream", "http.result", "manager.queue_wait",
		"spec.decode", "spec.validate", "report.encode"}
	if w.dataDir {
		layers = append(layers, "journal.append")
	}
	switch {
	case w.cluster:
		layers = append(layers, "slice.run", "partial.encode", "partial.decode", "merge")
	case w.checkpointEvery > 0:
		layers = append(layers, "engine.run", "checkpoint.encode", "checkpoint.write")
	default:
		layers = append(layers, "engine.run")
	}
	return layers
}
