package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json at the repository
// root repeats these lists with the regression bounds; TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
}

// endToEnd are the metrics a user of the job service sees; every
// workload reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"job_s_p50", "s", "lower"},
	{"job_s_p75", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"terminal_slots_per_s", "1/s", "higher"},
	{"query_ms_p50", "ms", "lower"},
	{"query_ms_p75", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics of a traced run, grouped by the
// package that pays for them.
var perLayer = []metricDef{
	// internal/server, timed at the client.
	{"http.submit_ms_p50", "ms", "lower"},
	{"http.result_ms_p50", "ms", "lower"},
	// internal/jobs Manager, from the job View's created/started/finished.
	{"manager.queue_wait_ms_p50", "ms", "lower"},
	{"manager.queue_wait_ms_p90", "ms", "lower"},
	{"manager.run_ms_p50", "ms", "lower"},
	// internal/jobs Spec.
	{"spec.decode_us_p50", "us", "lower"},
	{"spec.validate_us_p50", "us", "lower"},
	// internal/sim through locman.
	{"engine.setup_ms_p50", "ms", "lower"},
	{"engine.run_ms_p50", "ms", "lower"},
	{"engine.hot_ns_per_terminal_slot", "ns", "lower"},
	{"engine.terminal_slots", "count", "higher"},
	// internal/telemetry snapshot frames.
	{"telemetry.frames", "count", "lower"},
	{"telemetry.overhead_ms_p50", "ms", "lower"},
	// locman report encoding.
	{"report.encode_ms_p50", "ms", "lower"},
	{"report.bytes", "bytes", "lower"},
	// internal/jobs Journal.
	{"journal.append_ms_p50", "ms", "lower"},
	{"journal.append_ms_p90", "ms", "lower"},
	{"journal.records", "count", "lower"},
	{"journal.bytes", "bytes", "lower"},
	// internal/results through jobs.ResultRow.
	{"results.flatten_us_p50", "us", "lower"},
	{"results.ingest_ms_p50", "ms", "lower"},
	{"results.ingest_ms_p90", "ms", "lower"},
	{"results.table_bytes", "bytes", "lower"},
	{"results.rows", "count", "higher"},
	{"results.query_ms_p50", "ms", "lower"},
	// internal/cluster and the locman partial codec.
	{"slice.run_ms_p50", "ms", "lower"},
	{"partial.encode_ms_p50", "ms", "lower"},
	{"partial.decode_ms_p50", "ms", "lower"},
	{"partial.bytes", "bytes", "lower"},
	{"lease.rtt_ms_p50", "ms", "lower"},
	{"lease.overhead_ms_p50", "ms", "lower"},
	{"merge.ms_p50", "ms", "lower"},
	{"cluster.releases", "count", "lower"},
	// Checkpoints, as jobs.Manager persists them.
	{"checkpoint.encode_ms_p50", "ms", "lower"},
	{"checkpoint.write_ms_p50", "ms", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"checkpoint.count", "count", "lower"},
	// Journal replay and results backfill on restart.
	{"recover.replay_ms", "ms", "lower"},
	{"recover.backfill_ms", "ms", "lower"},
	{"recover.records", "count", "lower"},
	// Ratios, each with its base named in the README.
	{"job_over_direct", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// shownOnly are printed for reading but not reported: a traced run's
// library time of the same spec, the base of job_over_direct.
var shownOnly = []metricDef{
	{"ref_job_s_p50", "s", "lower"},
}

// metricDefs returns the metric list a run reports.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// value is one reported metric: the measurement, its unit and how many
// samples it summarizes.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns NaN for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
