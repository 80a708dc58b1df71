package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// options are one workload run's settings.
type options struct {
	seed  uint64
	box   time.Duration // measured phase length
	trace bool
	// scale divides populations and table sizes; 1 is the benchmark.
	scale int
	// out holds trace files and, while the run lasts, its work dirs.
	out string
	// corrupt, when set, edits the references after prep (tests use it
	// to prove a wrong result fails the run).
	corrupt func(*prepared)
}

// setups is how many times a run builds the system; setup_s is their
// median, and the last one serves the measured load.
const setups = 5

// outcome is one workload run's result: the object the last output line
// carries, plus what the human-readable lines show.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	failures []string
	info     map[string]value // every computed metric, reported or not
	rollup   []layerRow
	onPath   map[string]bool
}

// runWorkload prepares, sets up, loads and (when tracing) replays one
// workload, and returns its metrics.
func runWorkload(ctx context.Context, w workload, o options) (*outcome, error) {
	work := filepath.Join(o.out, fmt.Sprintf("work-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	prep, err := prepare(ctx, w, o.seed, o.scale, work)
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	if o.corrupt != nil {
		o.corrupt(prep)
	}
	d := &driver{hc: &http.Client{}, prep: prep}
	var setupNS []float64
	var sys *system
	for i := 0; i < setups; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		dir := filepath.Join(work, fmt.Sprintf("data-%d", i))
		if prep.seedDir != "" {
			if err := copyDir(prep.seedDir, dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if sys, err = startSystem(w, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d.url = sys.front.url
		if err := d.warm(ctx, w); err != nil {
			sys.close()
			return nil, fmt.Errorf("setup: warm-up job: %w", err)
		}
		setupNS = append(setupNS, float64(time.Since(start)))
	}
	defer sys.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
		d.tr = tr
	}
	rss := startRSSMeter()
	ph := d.load(ctx, w, o.box)
	rssMB, rssWindows, err := rss.finish()
	if err != nil {
		return nil, fmt.Errorf("reading the resident set: %w", err)
	}
	views, err := d.views(ctx)
	if err != nil {
		return nil, fmt.Errorf("listing jobs: %w", err)
	}

	out := &outcome{info: make(map[string]value)}
	put := func(name string, v float64, n int) {
		out.info[name] = value{Value: v, Unit: unitOf(name), Samples: n}
	}
	var totals, queueWait, run []float64
	var terminalSlots float64
	for _, s := range ph.jobs {
		totals = append(totals, float64(s.total))
		spec := prep.specs[s.spec]
		terminalSlots += float64(spec.Terminals) * float64(spec.Slots)
		v := views[s.id]
		if v.Started == nil || v.Finished == nil {
			return nil, fmt.Errorf("job %s view lacks its start or finish time", s.id)
		}
		queueWait = append(queueWait, float64(v.Started.Sub(v.Created)))
		run = append(run, float64(v.Finished.Sub(*v.Started)))
		tr.add(s.streamID, "manager.queue_wait", s.id, v.Created, *v.Started)
		tr.add(s.streamID, "manager.run", s.id, *v.Started, *v.Finished)
	}
	put("setup_s", median(setupNS)/1e9, len(setupNS))
	put("job_s_p50", quantile(totals, 0.5)/1e9, len(totals))
	put("job_s_p75", quantile(totals, 0.75)/1e9, len(totals))
	put("jobs_per_s", float64(len(ph.jobs))/ph.wall.Seconds(), len(ph.jobs))
	put("terminal_slots_per_s", terminalSlots/ph.wall.Seconds(), len(ph.jobs))
	put("query_ms_p50", quantile(ph.queries, 0.5)/1e6, len(ph.queries))
	put("query_ms_p75", quantile(ph.queries, 0.75)/1e6, len(ph.queries))
	put("manager.queue_wait_ms_p50", quantile(queueWait, 0.5)/1e6, len(queueWait))
	put("manager.queue_wait_ms_p90", quantile(queueWait, 0.9)/1e6, len(queueWait))
	put("manager.run_ms_p50", median(run)/1e6, len(run))
	put("peak_rss_mb", rssMB, rssWindows)

	if o.trace {
		if err := traceLayers(ctx, w, prep, sys, d, work, o, out, put); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	if releases := sys.releases(); releases != 0 {
		d.fail(fmt.Errorf("coordinator re-leased %d slices on a healthy cluster", releases))
	}

	out.Metrics = make(map[string]value)
	for _, m := range metricDefs(o.trace) {
		v, ok := out.info[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", m.Name)
		}
		out.Metrics[m.Name] = v
	}
	out.Attempted, out.failures = d.attempted, d.failures
	out.Failed = len(d.failures)
	out.Correct = out.Failed == 0
	return out, nil
}

// traceLayers runs the replay and probes after the traced load and adds
// the per-layer metrics, the rollup and the trace file.
func traceLayers(ctx context.Context, w workload, prep *prepared, sys *system, d *driver, work string, o options, out *outcome, put func(string, float64, int)) error {
	r, err := newReplayer(w, prep, d.tr, filepath.Join(work, "layers"))
	if err != nil {
		return err
	}
	if err := r.directRuns(ctx); err != nil {
		return err
	}
	if err := r.replay(ctx); err != nil {
		return err
	}
	if err := r.probe(ctx); err != nil {
		return err
	}
	workerURL := ""
	if sys.coord != nil {
		workerURL = sys.workers[0].url
	} else {
		// A worker node that never joins anything: only its slice
		// endpoint is used.
		n, _, err := startWorker("http://127.0.0.1:1")
		if err != nil {
			return err
		}
		defer n.close()
		workerURL = n.url
	}
	if err := r.lease(ctx, d.hc, workerURL); err != nil {
		return err
	}
	records, err := r.recovery(work)
	if err != nil {
		return err
	}
	tableBytes, err := r.tableBytes()
	if err != nil {
		return err
	}

	spans := d.tr.snapshot()
	self := selfTimes(spans)
	dist := func(name string, xs []float64, q, div float64) {
		put(name, quantile(xs, q)/div, len(xs))
	}
	count := func(name string, v float64) { put(name, v, 1) }
	spec := prep.specs[0]

	dist("http.submit_ms_p50", durations(spans, "http.submit"), 0.5, 1e6)
	dist("http.result_ms_p50", durations(spans, "http.result"), 0.5, 1e6)
	dist("spec.decode_us_p50", durations(spans, "spec.decode"), 0.5, 1e3)
	dist("spec.validate_us_p50", durations(spans, "spec.validate"), 0.5, 1e3)
	setup := durations(spans, "engine.setup")
	engine := selfDurations(spans, self, "engine.run")
	dist("engine.setup_ms_p50", setup, 0.5, 1e6)
	dist("engine.run_ms_p50", engine, 0.5, 1e6)
	hot := (median(engine) - median(setup)) / (float64(spec.Terminals) * float64(spec.Slots-1))
	put("engine.hot_ns_per_terminal_slot", hot, len(engine))
	count("engine.terminal_slots", float64(spec.Terminals)*float64(spec.Slots))
	count("telemetry.frames", float64(r.frames))
	on, off := durations(spans, "telemetry.on"), durations(spans, "telemetry.off")
	put("telemetry.overhead_ms_p50", (median(on)-median(off))/1e6, len(on))
	dist("report.encode_ms_p50", durations(spans, "report.encode"), 0.5, 1e6)
	count("report.bytes", float64(len(prep.refs[0])))
	appends := durations(spans, "journal.append")
	dist("journal.append_ms_p50", appends, 0.5, 1e6)
	dist("journal.append_ms_p90", appends, 0.9, 1e6)
	count("journal.records", float64(r.jl.Records()))
	count("journal.bytes", float64(r.jl.Size()))
	dist("results.flatten_us_p50", durations(spans, "results.flatten"), 0.5, 1e3)
	ingests := durations(spans, "results.ingest")
	dist("results.ingest_ms_p50", ingests, 0.5, 1e6)
	dist("results.ingest_ms_p90", ingests, 0.9, 1e6)
	count("results.table_bytes", float64(tableBytes))
	count("results.rows", float64(r.store.Len()))
	dist("results.query_ms_p50", durations(spans, "results.query"), 0.5, 1e6)
	sliceRun := durations(spans, "slice.run")
	dist("slice.run_ms_p50", sliceRun, 0.5, 1e6)
	dist("partial.encode_ms_p50", durations(spans, "partial.encode"), 0.5, 1e6)
	dist("partial.decode_ms_p50", durations(spans, "partial.decode"), 0.5, 1e6)
	dist("partial.bytes", r.partials, 0.5, 1)
	rtt := durations(spans, "lease")
	dist("lease.rtt_ms_p50", rtt, 0.5, 1e6)
	put("lease.overhead_ms_p50", (median(rtt)-median(sliceRun))/1e6, len(rtt))
	dist("merge.ms_p50", durations(spans, "merge"), 0.5, 1e6)
	count("cluster.releases", float64(sys.releases()))
	dist("checkpoint.encode_ms_p50", durations(spans, "checkpoint.encode"), 0.5, 1e6)
	dist("checkpoint.write_ms_p50", durations(spans, "checkpoint.write"), 0.5, 1e6)
	dist("checkpoint.bytes", r.ckptBytes, 0.5, 1)
	dist("checkpoint.count", r.ckptCounts, 0.5, 1)
	replay := durations(spans, "recover.replay")
	dist("recover.replay_ms", replay, 0.5, 1e6)
	put("recover.backfill_ms", (median(durations(spans, "recover.total"))-median(replay))/1e6, len(replay))
	count("recover.records", float64(records))
	ref := durations(spans, "direct")
	put("ref_job_s_p50", median(ref)/1e9, len(ref))
	jobS := out.info["job_s_p50"].Value
	put("job_over_direct", jobS/out.info["ref_job_s_p50"].Value, out.info["job_s_p50"].Samples)

	out.rollup = rollup(spans)
	out.onPath = make(map[string]bool)
	for _, l := range pathLayers(w) {
		out.onPath[l] = true
	}
	var covered float64
	for _, row := range out.rollup {
		if out.onPath[row.Layer] {
			covered += row.SelfMsPerJob
		}
	}
	put("trace.coverage", covered/(jobS*1e3), out.info["job_s_p50"].Samples)

	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return writeTrace(filepath.Join(o.out, w.name+".trace.json"),
		traceFile{Workload: w.name, Seed: o.seed, Spans: spans, Rollup: out.rollup})
}

// unitOf looks a metric's unit up in the definitions.
func unitOf(name string) string {
	for _, m := range append(append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...), shownOnly...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// The resident set is read every rssEvery, and peak_rss_mb is the median
// over rssWindow-long windows of the measured phase of each window's
// peak. The process's all-time peak (getrusage maxrss) depends on where
// garbage collections fall between two jobs' allocations; across seeds
// it spread 9 to 13% on bulk, too wide for a 10% bound.
const (
	rssWindow = time.Second
	rssEvery  = 5 * time.Millisecond
)

// rssMeter samples the process's resident set from start until finish.
type rssMeter struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per window; the last window may be short
	err   error
}

func startRSSMeter() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.run()
	return m
}

func (m *rssMeter) run() {
	defer close(m.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	start, peak := time.Now(), 0.0
	for {
		mb, err := residentMB()
		if err != nil {
			m.err = err
			return
		}
		peak = max(peak, mb)
		select {
		case <-m.stop:
			m.peaks = append(m.peaks, peak)
			return
		case now := <-tick.C:
			if now.Sub(start) >= rssWindow {
				m.peaks = append(m.peaks, peak)
				start, peak = now, 0
			}
		}
	}
}

// finish stops the sampling and returns the median window peak in MB
// and the number of windows.
func (m *rssMeter) finish() (float64, int, error) {
	close(m.stop)
	<-m.done
	if m.err != nil {
		return 0, 0, m.err
	}
	return median(m.peaks), len(m.peaks), nil
}

// residentMB is the process's resident set size, from /proc/self/statm.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm reads %q", raw)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
