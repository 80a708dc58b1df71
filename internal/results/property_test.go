package results

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// The brute-force equivalence property: for random synthetic tables and
// random queries, every aggregate of every group the store computes
// must equal — bit for bit, compared through the JSON encoding — an
// independent recomputation that sorts rows itself, filters with naive
// loops, groups with naive key comparison, and aggregates with plain
// sums and sort+index percentiles. Rows are ingested in shuffled order,
// so the property also pins the canonical-order guarantee: ingestion
// order must never show through.

// genRow synthesizes one row: dimensions from small vocabularies (so
// groups actually collide) and metrics from wide random ranges with NaN
// sprinkled into the float metric columns.
func genRow(rnd *rand.Rand, job string) Row {
	scenarios := []string{"", "baseline", "rush-hour-hotspot", "highway-commute"}
	schemes := []string{"distance", "timer", "movement"}
	engines := []string{"des", "cols"}
	models := []string{"1d", "2d"}
	partitions := []string{"sdf", "blanket"}
	qs := []float64{0.01, 0.05, 0.2}
	cs := []float64{0.005, 0.01}

	metric := func() float64 {
		switch rnd.Intn(6) {
		case 0:
			return math.NaN()
		case 1:
			return 0
		case 2:
			return -rnd.ExpFloat64() * 10
		default:
			return rnd.ExpFloat64() * 100
		}
	}
	counter := func() int64 { return rnd.Int63n(1_000_000) }

	r := Row{
		Job:         job,
		Scenario:    scenarios[rnd.Intn(len(scenarios))],
		Scheme:      schemes[rnd.Intn(len(schemes))],
		SchemeParam: int64(rnd.Intn(3) * 6),
		Engine:      engines[rnd.Intn(len(engines))],
		Model:       models[rnd.Intn(len(models))],
		Partition:   partitions[rnd.Intn(len(partitions))],
		Dynamic:     int64(rnd.Intn(2)),
		D:           int64(rnd.Intn(5)) - 1,
		Q:           qs[rnd.Intn(len(qs))],
		C:           cs[rnd.Intn(len(cs))],
		U:           100,
		V:           10,
		M:           int64(rnd.Intn(4)),
		Terminals:   int64(10 + rnd.Intn(90)),
		Slots:       int64(1000 * (1 + rnd.Intn(5))),
		Shards:      int64(1 + rnd.Intn(8)),
		Seed:        rnd.Int63n(100),
	}
	// Metric columns: every int counter random, every float metric from
	// the NaN-sprinkling generator.
	for _, c := range columns {
		if c.dim {
			continue
		}
		switch c.kind {
		case KindInt:
			setInt(&r, c.name, counter())
		case KindFloat:
			setFloat(&r, c.name, metric())
		}
	}
	return r
}

// setInt / setFloat poke a metric column's field through the schema's
// accessor table, so the generator never drifts from the column list.
func setInt(r *Row, name string, v int64) {
	switch name {
	case "updates":
		r.Updates = v
	case "lost_updates":
		r.LostUpdates = v
	case "retransmissions":
		r.Retransmissions = v
	case "acks":
		r.Acks = v
	case "outage_deferred":
		r.OutageDeferred = v
	case "calls":
		r.Calls = v
	case "polled_cells":
		r.PolledCells = v
	case "dropped_calls":
		r.DroppedCalls = v
	case "re_polls":
		r.RePolls = v
	case "fallback_calls":
		r.FallbackCalls = v
	case "lost_polls":
		r.LostPolls = v
	case "lost_replies":
		r.LostReplies = v
	case "not_found":
		r.NotFound = v
	case "update_bytes":
		r.UpdateBytes = v
	case "poll_bytes":
		r.PollBytes = v
	case "reply_bytes":
		r.ReplyBytes = v
	case "ack_bytes":
		r.AckBytes = v
	case "events":
		r.Events = v
	default:
		panic("unknown int metric column " + name)
	}
}

func setFloat(r *Row, name string, v float64) {
	switch name {
	case "update_cost":
		r.UpdateCost = v
	case "paging_cost":
		r.PagingCost = v
	case "total_cost":
		r.TotalCost = v
	case "delay_mean":
		r.DelayMean = v
	case "delay_max":
		r.DelayMax = v
	case "delay_p50":
		r.DelayP50 = v
	case "delay_p95":
		r.DelayP95 = v
	case "delay_p99":
		r.DelayP99 = v
	case "recovery_mean":
		r.RecoveryMean = v
	case "recovery_max":
		r.RecoveryMax = v
	case "recovery_p50":
		r.RecoveryP50 = v
	case "recovery_p95":
		r.RecoveryP95 = v
	case "recovery_p99":
		r.RecoveryP99 = v
	default:
		panic("unknown float metric column " + name)
	}
}

// rowValue reads one row's value for a column as the store would.
func rowValue(r *Row, ci int) (s string, f float64) {
	switch columns[ci].kind {
	case KindString:
		return columns[ci].str(r), 0
	case KindInt:
		return "", float64(columns[ci].i64(r))
	default:
		return "", columns[ci].f64(r)
	}
}

// genQuery synthesizes a random valid query over the schema.
func genQuery(rnd *rand.Rand) *Request {
	names := ColumnNames()
	var numeric []string
	for _, c := range columns {
		if c.kind != KindString {
			numeric = append(numeric, c.name)
		}
	}
	stringVocab := []string{"", "baseline", "rush-hour-hotspot", "distance", "timer", "fast", "cols", "1d", "zzz"}
	ops := []string{"eq", "ne", "lt", "le", "gt", "ge"}

	req := &Request{}
	for i, n := 0, rnd.Intn(3); i < n; i++ {
		col := names[rnd.Intn(len(names))]
		f := Filter{Column: col, Op: ops[rnd.Intn(len(ops))]}
		if k, _ := ColumnKind(col); k == KindString {
			f.Value = stringVocab[rnd.Intn(len(stringVocab))]
		} else {
			// Mix thresholds likely to split the data with exact small
			// integers that can hit eq on int columns.
			if rnd.Intn(2) == 0 {
				f.Value = float64(rnd.Intn(6) - 1)
			} else {
				f.Value = rnd.ExpFloat64() * 50
			}
		}
		req.Filter = append(req.Filter, f)
	}
	dims := DimensionNames()
	seen := map[string]bool{}
	for i, n := 0, rnd.Intn(4); i < n; i++ {
		col := dims[rnd.Intn(len(dims))]
		if !seen[col] {
			seen[col] = true
			req.GroupBy = append(req.GroupBy, col)
		}
	}
	aggOps := []string{"mean", "min", "max", "p50", "p95", "p99"}
	seenAgg := map[string]bool{}
	for i, n := 0, 1+rnd.Intn(4); i < n; i++ {
		var a Aggregate
		if rnd.Intn(4) == 0 {
			a = Aggregate{Op: "count"}
		} else {
			a = Aggregate{Op: aggOps[rnd.Intn(len(aggOps))], Column: numeric[rnd.Intn(len(numeric))]}
		}
		if !seenAgg[a.Label()] {
			seenAgg[a.Label()] = true
			req.Aggregates = append(req.Aggregates, a)
		}
	}
	return req
}

// bruteQuery recomputes a query from first principles over the raw
// rows: sort by job id, naive filter loops, naive grouping, plain
// left-to-right sums, sort+index percentiles. It shares no evaluation
// code with the store.
func bruteQuery(rows []Row, req *Request) *Response {
	sorted := append([]Row(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Job < sorted[j].Job })

	var match []*Row
	for i := range sorted {
		r := &sorted[i]
		ok := true
		for _, f := range req.Filter {
			if !bruteMatch(r, f) {
				ok = false
				break
			}
		}
		if ok {
			match = append(match, r)
		}
	}

	type grp struct {
		key  []any
		rows []*Row
	}
	var groups []*grp
	for _, r := range match {
		key := make([]any, len(req.GroupBy))
		for i, name := range req.GroupBy {
			ci := colIndex[name]
			switch columns[ci].kind {
			case KindString:
				key[i] = columns[ci].str(r)
			case KindInt:
				key[i] = columns[ci].i64(r)
			default:
				key[i] = columns[ci].f64(r)
			}
		}
		var g *grp
		for _, cand := range groups {
			if sameKey(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &grp{key: key}
			groups = append(groups, g)
		}
		g.rows = append(g.rows, r)
	}
	sort.SliceStable(groups, func(i, j int) bool { return bruteLess(groups[i].key, groups[j].key) })

	resp := &Response{
		Schema:      QuerySchema,
		GroupBy:     append([]string{}, req.GroupBy...),
		Aggregates:  []string{},
		RowsScanned: len(rows),
		RowsMatched: len(match),
		Groups:      []Group{},
	}
	for _, a := range req.Aggregates {
		resp.Aggregates = append(resp.Aggregates, a.Label())
	}
	for _, g := range groups {
		out := Group{Key: g.key, Values: []any{}}
		for _, a := range req.Aggregates {
			out.Values = append(out.Values, bruteAggregate(a, g.rows))
		}
		resp.Groups = append(resp.Groups, out)
	}
	return resp
}

func bruteMatch(r *Row, f Filter) bool {
	ci := colIndex[f.Column]
	if columns[ci].kind == KindString {
		v, _ := rowValue(r, ci)
		w := f.Value.(string)
		switch f.Op {
		case "eq":
			return v == w
		case "ne":
			return v != w
		case "lt":
			return v < w
		case "le":
			return v <= w
		case "gt":
			return v > w
		default:
			return v >= w
		}
	}
	_, v := rowValue(r, ci)
	w := f.Value.(float64)
	switch f.Op {
	case "eq":
		return v == w
	case "ne":
		return v != w
	case "lt":
		return v < w
	case "le":
		return v <= w
	case "gt":
		return v > w
	default:
		return v >= w
	}
}

func bruteAggregate(a Aggregate, rows []*Row) any {
	if a.Op == "count" {
		return int64(len(rows))
	}
	ci := colIndex[a.Column]
	var vals []float64
	for _, r := range rows {
		_, v := rowValue(r, ci)
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	var out float64
	switch a.Op {
	case "mean":
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		out = sum / float64(len(vals))
	case "min":
		out = vals[0]
		for _, v := range vals {
			if v < out {
				out = v
			}
		}
	case "max":
		out = vals[0]
		for _, v := range vals {
			if v > out {
				out = v
			}
		}
	case "p50", "p95", "p99":
		p := map[string]float64{"p50": 0.50, "p95": 0.95, "p99": 0.99}[a.Op]
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		out = sorted[idx]
	}
	if math.IsNaN(out) || math.IsInf(out, 0) {
		return nil
	}
	return out
}

func sameKey(a, b []any) bool {
	for i := range a {
		switch av := a[i].(type) {
		case string:
			if bv, ok := b[i].(string); !ok || av != bv {
				return false
			}
		case int64:
			if bv, ok := b[i].(int64); !ok || av != bv {
				return false
			}
		case float64:
			bv, ok := b[i].(float64)
			if !ok || math.Float64bits(av) != math.Float64bits(bv) {
				return false
			}
		}
	}
	return true
}

func bruteLess(a, b []any) bool {
	for i := range a {
		switch av := a[i].(type) {
		case string:
			bv := b[i].(string)
			if av != bv {
				return av < bv
			}
		case int64:
			bv := b[i].(int64)
			if av != bv {
				return av < bv
			}
		case float64:
			bv := b[i].(float64)
			if av != bv {
				return av < bv
			}
		}
	}
	return false
}

func TestQueryBruteForceEquivalence(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rnd := rand.New(rand.NewSource(int64(1000 + trial)))

		rows := make([]Row, rnd.Intn(40))
		for i := range rows {
			rows[i] = genRow(rnd, fmt.Sprintf("j%06d", i+1))
		}
		store := NewStore()
		for _, i := range rnd.Perm(len(rows)) { // shuffled ingestion order
			if err := store.Ingest(rows[i]); err != nil {
				t.Fatalf("trial %d: ingest %s: %v", trial, rows[i].Job, err)
			}
		}

		for q := 0; q < 8; q++ {
			req := genQuery(rnd)
			if err := req.Validate(); err != nil {
				t.Fatalf("trial %d query %d: generated invalid query: %v", trial, q, err)
			}
			got, err := store.Query(req)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, q, err)
			}
			want := bruteQuery(rows, req)

			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("trial %d query %d: encode store response: %v", trial, q, err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatalf("trial %d query %d: encode brute response: %v", trial, q, err)
			}
			if string(gotJSON) != string(wantJSON) {
				reqJSON, _ := json.Marshal(req)
				t.Fatalf("trial %d query %d: store and brute force disagree\nquery: %s\nstore: %s\nbrute: %s",
					trial, q, reqJSON, gotJSON, wantJSON)
			}
		}
	}
}

// TestQueryIngestionOrderInvariance pins the determinism contract
// directly: two stores with the same rows ingested in different orders
// answer every query with byte-identical JSON and save byte-identical
// table files.
func TestQueryIngestionOrderInvariance(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	rows := make([]Row, 25)
	for i := range rows {
		rows[i] = genRow(rnd, fmt.Sprintf("j%06d", i+1))
	}

	a, b := NewStore(), NewStore()
	for i := range rows {
		if err := a.Ingest(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rnd.Perm(len(rows)) {
		if err := b.Ingest(rows[i]); err != nil {
			t.Fatal(err)
		}
	}

	for q := 0; q < 20; q++ {
		req := genQuery(rnd)
		ra, err := a.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Query(req)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(ra)
		jb, _ := json.Marshal(rb)
		if string(ja) != string(jb) {
			t.Fatalf("query %d: ingestion order leaked into the response:\n%s\nvs\n%s", q, ja, jb)
		}
	}

	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := a.Save(pa); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(pb); err != nil {
		t.Fatal(err)
	}
	da := mustRead(t, pa)
	db := mustRead(t, pb)
	if string(da) != string(db) {
		t.Fatal("ingestion order leaked into the persistence file")
	}

	// A store loaded back from the file answers identically too.
	c, err := Open(pa)
	if err != nil {
		t.Fatal(err)
	}
	req := genQuery(rnd)
	ra, err := a.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := c.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(ra)
	jc, _ := json.Marshal(rc)
	if string(ja) != string(jc) {
		t.Fatalf("loaded store diverges from the original:\n%s\nvs\n%s", ja, jc)
	}
}
