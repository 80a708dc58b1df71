// Package results is the sweep-analytics layer of the job service: an
// in-memory columnar table (Store) that flattens every completed
// simulation job — the configuration knobs it ran with and the final
// report's metrics — into typed columns, plus a small deterministic
// query API (filter, group-by, aggregate) over it.
//
// The paper's whole product is a cost surface: C_T(d, m) swept over
// thresholds and mobility parameters, minimized at d*. A sweep of jobs
// through pcnserve produces exactly that surface, but as opaque per-job
// JSON blobs; this package turns the blobs back into a table so
// questions like "p95 paging delay vs threshold across last night's
// sweep" are one query instead of five hundred file reads.
//
// Determinism contract: the table is canonically ordered by job id
// regardless of ingestion order (jobs finish and backfill in whatever
// order they please), every aggregate folds values in that canonical
// order, and groups sort by their key values — so a query's JSON
// response is byte-identical for the same table content, whether the
// store was filled live, backfilled from a journal replay, or loaded
// from its persistence file. The pre/post-restart CI leg holds the
// service to exactly that.
//
// Persistence: a store from Open loads a table file and saves it back
// only on Flush, which pcnserve calls at shutdown and after a recovery
// that backfilled rows. Ingest never writes it. The job journal is the
// per-job durable record; after a crash the file lags the journal and
// recovery backfills the rows it lacks.
package results

import (
	"fmt"
	"strings"
)

// Kind is a column's value type.
type Kind int

const (
	// KindString columns hold dimension labels (scheme, scenario, ...).
	KindString Kind = iota
	// KindInt columns hold exact integer dimensions and counters.
	KindInt
	// KindFloat columns hold real-valued dimensions and metrics; metric
	// columns may contain NaN (meaning "not measured"), which every
	// aggregate skips.
	KindFloat
)

// String names the kind as it appears in the persistence file.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func kindByName(name string) (Kind, error) {
	switch name {
	case "string":
		return KindString, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	default:
		return 0, fmt.Errorf("results: unknown column kind %q (valid kinds: string, int, float)", name)
	}
}

// Row is one completed job flattened into the table's column values:
// the resolved configuration knobs (what the job ran with, scenario
// defaults applied) and the report's final metrics. jobs.ResultRow
// builds one from a job Spec and its locman.Report.
//
// Dimension fields (Job through Seed) must be finite; Ingest rejects a
// row with a NaN or infinite dimension, because dimensions become group
// keys and filters. Metric fields may be NaN — a metric the run did not
// measure — and every aggregate skips NaN values (KindFloat).
type Row struct {
	// Job is the service-assigned job id; it is the table's primary key
	// and its canonical sort order.
	Job string

	// Resolved configuration knobs.
	Scenario    string  // registered scenario name, "" for an explicit model
	Scheme      string  // update scheme name ("distance", "timer", "movement")
	SchemeParam int64   // timer period / movement count in slots; 0 for distance
	Engine      string  // simulation engine name ("cols", "des")
	Model       string  // mobility model ("1d", "2d")
	Partition   string  // paging partitioner name
	Dynamic     int64   // 1 when the dynamic per-user mechanism was on
	D           int64   // static update threshold; -1 = network-optimized
	Q           float64 // per-slot movement probability (fleet average view)
	C           float64 // per-slot call-arrival probability
	U           float64 // location-update unit cost
	V           float64 // per-cell polling unit cost
	M           int64   // paging delay bound in polling cycles; 0 = unbounded
	Terminals   int64   // population size
	Slots       int64   // run length in slots
	Shards      int64   // resolved shard count the run used
	Seed        int64   // simulation seed

	// Report counters.
	Updates         int64
	LostUpdates     int64
	Retransmissions int64
	Acks            int64
	OutageDeferred  int64
	Calls           int64
	PolledCells     int64
	DroppedCalls    int64
	RePolls         int64
	FallbackCalls   int64
	LostPolls       int64
	LostReplies     int64
	NotFound        int64
	UpdateBytes     int64
	PollBytes       int64
	ReplyBytes      int64
	AckBytes        int64
	Events          int64

	// Cost averages in the paper's U/V units (per slot per terminal).
	UpdateCost float64
	PagingCost float64
	TotalCost  float64

	// Paging-delay distribution: mean/max from the exact accumulator,
	// percentiles from the fixed-bucket histogram (bit-for-bit the
	// report's histogram-derived values). NaN when the report carried no
	// histogram.
	DelayMean float64
	DelayMax  float64
	DelayP50  float64
	DelayP95  float64
	DelayP99  float64

	// Recovery-latency distribution, same provenance as the delay one.
	RecoveryMean float64
	RecoveryMax  float64
	RecoveryP50  float64
	RecoveryP95  float64
	RecoveryP99  float64
}

// columnDef binds a column name to its kind and its Row accessor.
// Exactly one accessor is set, matching the kind.
type columnDef struct {
	name string
	kind Kind
	dim  bool // dimension (must be finite) vs metric (may be NaN)
	str  func(*Row) string
	i64  func(*Row) int64
	f64  func(*Row) float64
}

// columns is the table schema, in presentation order. The order is part
// of the persistence format (TableSchema) but not of the query API,
// which addresses columns by name only.
var columns = []columnDef{
	{name: "job", kind: KindString, dim: true, str: func(r *Row) string { return r.Job }},
	{name: "scenario", kind: KindString, dim: true, str: func(r *Row) string { return r.Scenario }},
	{name: "scheme", kind: KindString, dim: true, str: func(r *Row) string { return r.Scheme }},
	{name: "scheme_param", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.SchemeParam }},
	{name: "engine", kind: KindString, dim: true, str: func(r *Row) string { return r.Engine }},
	{name: "model", kind: KindString, dim: true, str: func(r *Row) string { return r.Model }},
	{name: "partition", kind: KindString, dim: true, str: func(r *Row) string { return r.Partition }},
	{name: "dynamic", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.Dynamic }},
	{name: "d", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.D }},
	{name: "q", kind: KindFloat, dim: true, f64: func(r *Row) float64 { return r.Q }},
	{name: "c", kind: KindFloat, dim: true, f64: func(r *Row) float64 { return r.C }},
	{name: "u", kind: KindFloat, dim: true, f64: func(r *Row) float64 { return r.U }},
	{name: "v", kind: KindFloat, dim: true, f64: func(r *Row) float64 { return r.V }},
	{name: "m", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.M }},
	{name: "terminals", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.Terminals }},
	{name: "slots", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.Slots }},
	{name: "shards", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.Shards }},
	{name: "seed", kind: KindInt, dim: true, i64: func(r *Row) int64 { return r.Seed }},

	{name: "updates", kind: KindInt, i64: func(r *Row) int64 { return r.Updates }},
	{name: "lost_updates", kind: KindInt, i64: func(r *Row) int64 { return r.LostUpdates }},
	{name: "retransmissions", kind: KindInt, i64: func(r *Row) int64 { return r.Retransmissions }},
	{name: "acks", kind: KindInt, i64: func(r *Row) int64 { return r.Acks }},
	{name: "outage_deferred", kind: KindInt, i64: func(r *Row) int64 { return r.OutageDeferred }},
	{name: "calls", kind: KindInt, i64: func(r *Row) int64 { return r.Calls }},
	{name: "polled_cells", kind: KindInt, i64: func(r *Row) int64 { return r.PolledCells }},
	{name: "dropped_calls", kind: KindInt, i64: func(r *Row) int64 { return r.DroppedCalls }},
	{name: "re_polls", kind: KindInt, i64: func(r *Row) int64 { return r.RePolls }},
	{name: "fallback_calls", kind: KindInt, i64: func(r *Row) int64 { return r.FallbackCalls }},
	{name: "lost_polls", kind: KindInt, i64: func(r *Row) int64 { return r.LostPolls }},
	{name: "lost_replies", kind: KindInt, i64: func(r *Row) int64 { return r.LostReplies }},
	{name: "not_found", kind: KindInt, i64: func(r *Row) int64 { return r.NotFound }},
	{name: "update_bytes", kind: KindInt, i64: func(r *Row) int64 { return r.UpdateBytes }},
	{name: "poll_bytes", kind: KindInt, i64: func(r *Row) int64 { return r.PollBytes }},
	{name: "reply_bytes", kind: KindInt, i64: func(r *Row) int64 { return r.ReplyBytes }},
	{name: "ack_bytes", kind: KindInt, i64: func(r *Row) int64 { return r.AckBytes }},
	{name: "events", kind: KindInt, i64: func(r *Row) int64 { return r.Events }},

	{name: "update_cost", kind: KindFloat, f64: func(r *Row) float64 { return r.UpdateCost }},
	{name: "paging_cost", kind: KindFloat, f64: func(r *Row) float64 { return r.PagingCost }},
	{name: "total_cost", kind: KindFloat, f64: func(r *Row) float64 { return r.TotalCost }},

	{name: "delay_mean", kind: KindFloat, f64: func(r *Row) float64 { return r.DelayMean }},
	{name: "delay_max", kind: KindFloat, f64: func(r *Row) float64 { return r.DelayMax }},
	{name: "delay_p50", kind: KindFloat, f64: func(r *Row) float64 { return r.DelayP50 }},
	{name: "delay_p95", kind: KindFloat, f64: func(r *Row) float64 { return r.DelayP95 }},
	{name: "delay_p99", kind: KindFloat, f64: func(r *Row) float64 { return r.DelayP99 }},

	{name: "recovery_mean", kind: KindFloat, f64: func(r *Row) float64 { return r.RecoveryMean }},
	{name: "recovery_max", kind: KindFloat, f64: func(r *Row) float64 { return r.RecoveryMax }},
	{name: "recovery_p50", kind: KindFloat, f64: func(r *Row) float64 { return r.RecoveryP50 }},
	{name: "recovery_p95", kind: KindFloat, f64: func(r *Row) float64 { return r.RecoveryP95 }},
	{name: "recovery_p99", kind: KindFloat, f64: func(r *Row) float64 { return r.RecoveryP99 }},
}

// colIndex resolves a column name to its schema position.
var colIndex = func() map[string]int {
	m := make(map[string]int, len(columns))
	for i, c := range columns {
		if _, dup := m[c.name]; dup {
			panic("results: duplicate column name " + c.name)
		}
		m[c.name] = i
	}
	return m
}()

// ColumnNames lists every queryable column in schema order, for CLI
// help strings and error messages.
func ColumnNames() []string {
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.name
	}
	return names
}

// DimensionNames lists the groupable (dimension) columns in schema
// order; only these may appear in a query's group_by.
func DimensionNames() []string {
	var names []string
	for _, c := range columns {
		if c.dim {
			names = append(names, c.name)
		}
	}
	return names
}

// ColumnKind reports a column's kind; the error for an unknown name
// enumerates every valid one, following the EngineByName convention.
func ColumnKind(name string) (Kind, error) {
	i, err := columnByName(name)
	if err != nil {
		return 0, err
	}
	return columns[i].kind, nil
}

func columnByName(name string) (int, error) {
	if i, ok := colIndex[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("results: unknown column %q (valid columns: %s)",
		name, strings.Join(ColumnNames(), ", "))
}
