// Command schemacheck validates the project's machine-readable JSON
// documents on stdin against their published schemas. -kind selects the
// document type:
//
//	pcnsim -terminals 200 -slots 2000 -telemetry-every 500 -json | schemacheck
//	pcnctl get j000001 | schemacheck -kind job
//	schemacheck -kind journal < data/journal.ndjson
//	pcnctl query -by scenario -agg count | schemacheck -kind queryresult
//
// "report" (the default) is a pcnsim -json / pcnserve result document:
// it must decode into locman.Report with no unknown fields and satisfy
// the report's cross-field invariants. "job" is a pcnserve job document
// (jobs.View) as served by GET /api/v1/jobs/{id}. "journal" is a
// pcnserve durable job journal (checksummed NDJSON), validated
// strictly: every record must carry a valid checksum, a strictly
// increasing sequence number, and a well-formed payload, and every
// submitted spec must pass Spec.Validate — stricter than the service's
// own boot replay, which keeps the longest valid prefix and fails a
// recovered job whose spec no longer validates.
// "queryresult" is a pcnserve POST /query response, checked for schema,
// positional key/value consistency, strictly ascending group order and
// count-sum consistency. "partial" is a cluster partial-result envelope
// (cluster.PartialDoc JSON): the wire schema, the envelope fields, and
// the embedded self-checking payload are all validated, including
// envelope↔payload agreement on the slice geometry. CI pipes smoke runs
// of the document kinds through it so any drift between the emitted
// documents and the published schemas fails the build.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("schemacheck: ")

	kind := flag.String("kind", "report",
		"document kind on stdin: report (pcnsim -json), job (pcnserve job document), journal (pcnserve job journal), queryresult (pcnserve /query response), or partial (cluster partial-result envelope)")
	flag.Parse()

	if *kind == "journal" {
		// NDJSON, not a single document: validated record-by-record.
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		n, err := jobs.CheckJournal(data)
		if err != nil {
			log.Fatalf("journal invalid after %d good records: %v", n, err)
		}
		// Replay keeps a submit record whose spec the current rules
		// refuse (the job fails when recovered); this check is strict.
		recs, _, _ := jobs.ReplayJournal(bytes.NewReader(data))
		for i, rec := range recs {
			if rec.Kind != jobs.KindSubmit {
				continue
			}
			if err := rec.Spec.Validate(); err != nil {
				log.Fatalf("journal invalid after %d good records: jobs: submit record spec: %v", i, err)
			}
		}
		fmt.Printf("ok: journal schema %d, %d records, %d bytes\n", jobs.JournalSchema, n, len(data))
		return
	}

	dec := json.NewDecoder(os.Stdin)
	dec.DisallowUnknownFields()
	switch *kind {
	case "report":
		var r locman.Report
		if err := dec.Decode(&r); err != nil {
			log.Fatalf("document does not match locman.Report: %v", err)
		}
		if err := check(&r); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ok: schema %d, %d terminals, %d slots, %d snapshots\n",
			r.Schema, r.Terminals, r.Slots, len(r.Snapshots))
	case "job":
		var v jobs.View
		if err := dec.Decode(&v); err != nil {
			log.Fatalf("document does not match jobs.View: %v", err)
		}
		if err := checkJob(&v); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ok: schema %d, job %s %s, %d/%d terminal-slots\n",
			v.Schema, v.ID, v.State, v.TerminalSlots, v.TotalTerminalSlots)
	case "queryresult":
		var q results.Response
		if err := dec.Decode(&q); err != nil {
			log.Fatalf("document does not match results.Response: %v", err)
		}
		if err := checkQueryResult(&q); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ok: schema %d, %d/%d rows matched, %d groups × %d aggregates\n",
			q.Schema, q.RowsMatched, q.RowsScanned, len(q.Groups), len(q.Aggregates))
	case "partial":
		var d cluster.PartialDoc
		if err := dec.Decode(&d); err != nil {
			log.Fatalf("document does not match cluster.PartialDoc: %v", err)
		}
		p, err := checkPartial(&d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ok: schema %d, job %s node %s, shards [%d,%d) of %d, %d slots, seed %d\n",
			d.Schema, d.Job, d.Node, d.Lo, d.Hi, d.Shards, p.Slots, p.Seed)
	default:
		log.Fatalf("unknown -kind %q (valid kinds: report, job, journal, queryresult, partial)", *kind)
	}
}

// checkPartial enforces the invariants every well-formed cluster
// partial envelope satisfies: complete envelope identity fields, and a
// payload that decodes, self-validates and agrees with the envelope —
// the same gauntlet a coordinator runs before merging.
func checkPartial(d *cluster.PartialDoc) (*locman.Partial, error) {
	if d.Job == "" {
		return nil, fmt.Errorf("partial envelope without a job id")
	}
	if d.Node == "" {
		return nil, fmt.Errorf("partial envelope without a node id")
	}
	if d.SpecRev == "" {
		return nil, fmt.Errorf("partial envelope without a spec revision")
	}
	p, err := d.Decode()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// checkJob enforces the invariants every well-formed job document
// satisfies: a current schema, a known lifecycle state, a spec the
// service itself would accept, lifecycle timestamps consistent with the
// state, and progress within the run's bounds.
func checkJob(v *jobs.View) error {
	switch v.Schema {
	case jobs.SpecSchema, jobs.SpecSchemaV1:
	default:
		return fmt.Errorf("schema %d, want %d (or legacy %d)", v.Schema, jobs.SpecSchema, jobs.SpecSchemaV1)
	}
	if v.ID == "" {
		return fmt.Errorf("job id missing")
	}
	if !v.State.Valid() {
		return fmt.Errorf("unknown state %q", v.State)
	}
	if err := v.Spec.Validate(); err != nil {
		return fmt.Errorf("embedded spec invalid: %v", err)
	}
	if v.Created.IsZero() {
		return fmt.Errorf("created timestamp missing")
	}
	switch v.State {
	case jobs.StateQueued:
		if v.Started != nil || v.Finished != nil {
			return fmt.Errorf("queued job carries started/finished timestamps")
		}
	case jobs.StateRunning:
		if v.Started == nil {
			return fmt.Errorf("running job has no started timestamp")
		}
		if v.Finished != nil {
			return fmt.Errorf("running job carries a finished timestamp")
		}
	case jobs.StateDone, jobs.StateFailed:
		if v.Started == nil || v.Finished == nil {
			return fmt.Errorf("%s job missing started/finished timestamps", v.State)
		}
	}
	if v.State == jobs.StateFailed && v.Error == "" {
		return fmt.Errorf("failed job has no error")
	}
	if want := v.Spec.Slots * int64(v.Spec.Terminals); v.TotalTerminalSlots != want {
		return fmt.Errorf("total_terminal_slots %d != slots*terminals %d",
			v.TotalTerminalSlots, want)
	}
	if v.TerminalSlots < 0 || v.TerminalSlots > v.TotalTerminalSlots {
		return fmt.Errorf("terminal_slots %d outside [0, %d]",
			v.TerminalSlots, v.TotalTerminalSlots)
	}
	if v.State == jobs.StateDone && v.TerminalSlots != v.TotalTerminalSlots {
		return fmt.Errorf("done job at %d/%d terminal-slots",
			v.TerminalSlots, v.TotalTerminalSlots)
	}
	return nil
}

// checkQueryResult enforces the invariants every well-formed /query
// response satisfies: a current schema, known group-by columns with
// kind-consistent key values, well-formed aggregate labels, positional
// key/value widths, groups in strictly ascending key order (the
// determinism guarantee made visible), and count aggregates that sum
// back to rows_matched.
func checkQueryResult(q *results.Response) error {
	if q.Schema != results.QuerySchema {
		return fmt.Errorf("schema %d, want %d", q.Schema, results.QuerySchema)
	}
	if q.RowsMatched < 0 || q.RowsMatched > q.RowsScanned {
		return fmt.Errorf("rows_matched %d outside [0, rows_scanned %d]", q.RowsMatched, q.RowsScanned)
	}
	kinds := make([]results.Kind, len(q.GroupBy))
	for i, col := range q.GroupBy {
		k, err := results.ColumnKind(col)
		if err != nil {
			return fmt.Errorf("group_by[%d]: %v", i, err)
		}
		kinds[i] = k
	}
	if len(q.Aggregates) == 0 {
		return fmt.Errorf("no aggregates")
	}
	counts := make([]int64, len(q.Aggregates)) // summed count(...) values
	countIdx := -1
	for j, label := range q.Aggregates {
		a, err := parseLabel(label)
		if err != nil {
			return err
		}
		if a.Op == "count" {
			countIdx = j
		}
	}
	for gi, g := range q.Groups {
		if len(g.Key) != len(q.GroupBy) {
			return fmt.Errorf("group %d: key width %d != group_by width %d", gi, len(g.Key), len(q.GroupBy))
		}
		if len(g.Values) != len(q.Aggregates) {
			return fmt.Errorf("group %d: %d values != %d aggregates", gi, len(g.Values), len(q.Aggregates))
		}
		for i, kv := range g.Key {
			_, isStr := kv.(string)
			_, isNum := kv.(float64)
			if kinds[i] == results.KindString && !isStr {
				return fmt.Errorf("group %d: key %q is %T, want string", gi, q.GroupBy[i], kv)
			}
			if kinds[i] != results.KindString && !isNum {
				return fmt.Errorf("group %d: key %q is %T, want number", gi, q.GroupBy[i], kv)
			}
		}
		if gi > 0 && !keyLess(q.Groups[gi-1].Key, g.Key) {
			return fmt.Errorf("group %d: key %v not after %v (groups must sort strictly ascending)",
				gi, g.Key, q.Groups[gi-1].Key)
		}
		for j, v := range g.Values {
			if v == nil {
				continue // no finite result for this aggregate
			}
			n, ok := v.(float64)
			if !ok {
				return fmt.Errorf("group %d: value %d is %T, want number or null", gi, j, v)
			}
			if j == countIdx {
				if n < 1 || n != float64(int64(n)) {
					return fmt.Errorf("group %d: count %v is not a positive integer", gi, n)
				}
				counts[j] += int64(n)
			}
		}
	}
	if countIdx >= 0 && counts[countIdx] != int64(q.RowsMatched) {
		return fmt.Errorf("count aggregates sum to %d, want rows_matched %d",
			counts[countIdx], q.RowsMatched)
	}
	return nil
}

// parseLabel validates one aggregate label, "count" or "op(column)".
func parseLabel(label string) (results.Aggregate, error) {
	if label == "count" {
		return results.Aggregate{Op: "count"}, nil
	}
	open := -1
	for i := range label {
		if label[i] == '(' {
			open = i
			break
		}
	}
	if open <= 0 || label[len(label)-1] != ')' {
		return results.Aggregate{}, fmt.Errorf("aggregate label %q is not count or op(column)", label)
	}
	a := results.Aggregate{Op: label[:open], Column: label[open+1 : len(label)-1]}
	switch a.Op {
	case "mean", "min", "max", "p50", "p95", "p99":
	default:
		return results.Aggregate{}, fmt.Errorf("aggregate label %q has unknown op %q", label, a.Op)
	}
	if _, err := results.ColumnKind(a.Column); err != nil {
		return results.Aggregate{}, fmt.Errorf("aggregate label %q: %v", label, err)
	}
	return a, nil
}

// keyLess orders two group keys the way the service sorts them.
func keyLess(a, b []any) bool {
	for i := range a {
		switch av := a[i].(type) {
		case string:
			bv, _ := b[i].(string)
			if av != bv {
				return av < bv
			}
		case float64:
			bv, _ := b[i].(float64)
			if av != bv {
				return av < bv
			}
		}
	}
	return false
}

// check enforces the invariants every well-formed report satisfies.
func check(r *locman.Report) error {
	if r.Schema != locman.ReportSchema {
		return fmt.Errorf("schema %d, want %d", r.Schema, locman.ReportSchema)
	}
	if r.Terminals <= 0 || r.Slots <= 0 {
		return fmt.Errorf("empty run shape: %d terminals, %d slots", r.Terminals, r.Slots)
	}
	if r.Delay.N != r.Calls-r.DroppedCalls {
		return fmt.Errorf("delay samples %d != calls %d - dropped %d",
			r.Delay.N, r.Calls, r.DroppedCalls)
	}
	if err := checkHist("delay_hist", r.DelayHist, r.Delay.N); err != nil {
		return err
	}
	if err := checkHist("recovery_hist", r.RecoveryHist, r.Recovery.N); err != nil {
		return err
	}
	var prevSlot int64
	for i, f := range r.Snapshots {
		if f.Slot <= prevSlot {
			return fmt.Errorf("snapshot %d at slot %d not after %d", i, f.Slot, prevSlot)
		}
		prevSlot = f.Slot
	}
	if n := len(r.Snapshots); n > 0 {
		last := r.Snapshots[n-1]
		if last.Slot != r.Slots {
			return fmt.Errorf("final snapshot at slot %d, want %d", last.Slot, r.Slots)
		}
		if last.Updates != r.Updates || last.Calls != r.Calls ||
			last.PolledCells != r.PolledCells || last.Events != r.Events {
			return fmt.Errorf("final snapshot counters diverge from report totals")
		}
	}
	return nil
}

// checkHist validates one histogram section against its summary count.
func checkHist(name string, h *locman.HistReport, n int64) error {
	if h == nil {
		return fmt.Errorf("%s missing", name)
	}
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum+h.Overflow != h.N {
		return fmt.Errorf("%s: buckets %d + overflow %d != n %d", name, sum, h.Overflow, h.N)
	}
	if h.N != n {
		return fmt.Errorf("%s: n %d != summary n %d", name, h.N, n)
	}
	if h.N > 0 && (h.P50 > h.P95 || h.P95 > h.P99 || h.P99 > h.Max) {
		return fmt.Errorf("%s: quantiles not ordered: %v %v %v max %v",
			name, h.P50, h.P95, h.P99, h.Max)
	}
	return nil
}
