package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// QuerySchema versions the query request and response documents served
// at POST /query and validated by schemacheck -kind queryresult; it
// increments on any breaking change.
const QuerySchema = 1

// Request is the JSON query descriptor: optional row filters (ANDed),
// an optional group-by column list, and the aggregates to compute per
// group. With no group_by, all matched rows form one group (with an
// empty key); with no matched rows there are no groups at all.
type Request struct {
	// Schema must be QuerySchema or 0 (meaning the current schema).
	Schema int `json:"schema,omitempty"`
	// Filter rows must satisfy every predicate to be aggregated.
	Filter []Filter `json:"filter,omitempty"`
	// GroupBy partitions the matched rows by these columns' values;
	// duplicates are rejected.
	GroupBy []string `json:"group_by,omitempty"`
	// Aggregates are computed per group, in order; at least one is
	// required and duplicates are rejected.
	Aggregates []Aggregate `json:"aggregates"`
}

// Filter is one row predicate: column OP value.
//
// String columns compare lexicographically and require a string value;
// numeric columns compare numerically and require a number. Comparisons
// against a NaN metric follow IEEE semantics: eq/lt/le/gt/ge are false,
// ne is true.
type Filter struct {
	Column string `json:"column"`
	// Op is one of eq, ne, lt, le, gt, ge.
	Op string `json:"op"`
	// Value is a JSON string (string columns) or number (numeric ones).
	Value any `json:"value"`
}

// filterOps lists the valid filter operators.
var filterOps = []string{"eq", "ne", "lt", "le", "gt", "ge"}

// Aggregate is one per-group computation. count takes no column and
// counts the group's rows; every other op takes a numeric column and
// skips NaN values (an all-NaN or non-finite result reports null).
type Aggregate struct {
	// Op is one of count, mean, min, max, p50, p95, p99.
	Op string `json:"op"`
	// Column is the numeric column to aggregate; empty for count.
	Column string `json:"column,omitempty"`
}

// aggregateOps maps each valid aggregate op to its percentile (0 for
// the non-percentile ops).
var aggregateOps = map[string]float64{
	"count": 0, "mean": 0, "min": 0, "max": 0,
	"p50": 0.50, "p95": 0.95, "p99": 0.99,
}

// aggregateOpNames lists the valid aggregate ops in documentation
// order, for error messages.
var aggregateOpNames = []string{"count", "mean", "min", "max", "p50", "p95", "p99"}

// Label is the aggregate's canonical response label: "count" or
// "op(column)".
func (a Aggregate) Label() string {
	if a.Op == "count" {
		return "count"
	}
	return a.Op + "(" + a.Column + ")"
}

// Response is the query result document. Groups are sorted by their key
// values (column by column: strings lexicographically, numbers
// numerically), key and value slices are positional — Key[i] is the
// GroupBy[i] value, Values[j] the Aggregates[j] result — and every
// float is encoded shortest-round-trip, so the same table content
// always yields byte-identical response documents.
type Response struct {
	// Schema is always QuerySchema.
	Schema int `json:"schema"`
	// GroupBy echoes the request's grouping columns and Aggregates the
	// canonical labels of its aggregates, in request order.
	GroupBy    []string `json:"group_by"`
	Aggregates []string `json:"aggregates"`
	// RowsScanned is the table size at query time and RowsMatched how
	// many rows passed the filters (the groups partition exactly these).
	RowsScanned int `json:"rows_scanned"`
	RowsMatched int `json:"rows_matched"`
	// Groups holds one entry per distinct key among the matched rows.
	Groups []Group `json:"groups"`
}

// Group is one aggregated result row. Key values are typed (string or
// number); Values are numbers — integers for count, floats otherwise —
// or null for an aggregate with no finite result.
type Group struct {
	Key    []any `json:"key"`
	Values []any `json:"values"`
}

// DecodeRequest strictly decodes and validates a query request:
// unknown fields, trailing data, unknown columns/ops, type-mismatched
// filter values and duplicate group-by columns or aggregates are all
// errors, never panics (FuzzQueryDecode holds it to that).
func DecodeRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("results: invalid query request: %v", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("results: invalid query request: trailing data after the document")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// Validate rejects unusable requests with errors phrased for API
// clients; valid name sets are enumerated the way EngineByName and
// SchemeByName do.
func (r *Request) Validate() error {
	if r.Schema != 0 && r.Schema != QuerySchema {
		return fmt.Errorf("results: query schema %d, want %d", r.Schema, QuerySchema)
	}
	for _, f := range r.Filter {
		i, err := columnByName(f.Column)
		if err != nil {
			return err
		}
		if !validOp(f.Op) {
			return fmt.Errorf("results: unknown filter op %q (valid ops: %s)",
				f.Op, strings.Join(filterOps, ", "))
		}
		switch v := f.Value.(type) {
		case string:
			if columns[i].kind != KindString {
				return fmt.Errorf("results: filter on %s column %q needs a number, got string %q",
					columns[i].kind, f.Column, v)
			}
		case float64:
			if columns[i].kind == KindString {
				return fmt.Errorf("results: filter on string column %q needs a string, got number %v",
					f.Column, v)
			}
		default:
			return fmt.Errorf("results: filter on column %q has unsupported value %v (want a string or number)",
				f.Column, f.Value)
		}
	}
	seen := make(map[string]bool, len(r.GroupBy))
	for _, name := range r.GroupBy {
		i, err := columnByName(name)
		if err != nil {
			return err
		}
		// Only dimension columns group: dimensions are finite by
		// construction (Ingest enforces it), so group keys always have a
		// JSON encoding and a total order. Metric columns may hold NaN,
		// which has neither.
		if !columns[i].dim {
			return fmt.Errorf("results: group_by column %q is a metric; group by dimension columns (valid dimensions: %s)",
				name, strings.Join(DimensionNames(), ", "))
		}
		if seen[name] {
			return fmt.Errorf("results: duplicate group_by column %q", name)
		}
		seen[name] = true
	}
	if len(r.Aggregates) == 0 {
		return fmt.Errorf("results: at least one aggregate is required (valid ops: %s)",
			strings.Join(aggregateOpNames, ", "))
	}
	seenAgg := make(map[string]bool, len(r.Aggregates))
	for _, a := range r.Aggregates {
		if _, ok := aggregateOps[a.Op]; !ok {
			return fmt.Errorf("results: unknown aggregate op %q (valid ops: %s)",
				a.Op, strings.Join(aggregateOpNames, ", "))
		}
		if a.Op == "count" {
			if a.Column != "" {
				return fmt.Errorf("results: aggregate count takes no column (got %q)", a.Column)
			}
		} else {
			i, err := columnByName(a.Column)
			if err != nil {
				return err
			}
			if columns[i].kind == KindString {
				return fmt.Errorf("results: aggregate %s needs a numeric column; %q is a string column",
					a.Op, a.Column)
			}
		}
		if seenAgg[a.Label()] {
			return fmt.Errorf("results: duplicate aggregate %s", a.Label())
		}
		seenAgg[a.Label()] = true
	}
	return nil
}

func validOp(op string) bool {
	for _, o := range filterOps {
		if op == o {
			return true
		}
	}
	return false
}

// Query evaluates a request against the table. The walk is columnar:
// filters and group keys read the referenced columns directly, rows are
// visited in the canonical job-id order, and every aggregate folds its
// group's values in that order — which, with the sorted group output,
// makes the response deterministic for a given table content however
// the table was filled.
func (s *Store) Query(req *Request) (*Response, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()

	match := make([]int, 0, len(s.order))
	for _, row := range s.order {
		ok := true
		for _, f := range req.Filter {
			if !s.rowMatches(row, f) {
				ok = false
				break
			}
		}
		if ok {
			match = append(match, row)
		}
	}

	type bucket struct {
		key  []any
		rows []int
	}
	groups := make(map[string]*bucket)
	var keys []string
	// enc is the row's group key in an injective byte encoding, reused
	// across rows: the map lookup allocates nothing, and a group's key
	// values are boxed once, when the group is first seen.
	var enc []byte
	for _, row := range match {
		enc = enc[:0]
		for _, name := range req.GroupBy {
			ci := colIndex[name]
			switch columns[ci].kind {
			case KindString:
				v := s.cols[ci].strs[row]
				enc = strconv.AppendInt(append(enc, 's'), int64(len(v)), 10)
				enc = append(append(append(enc, ':'), v...), 0)
			case KindInt:
				enc = append(strconv.AppendInt(append(enc, 'i'), s.cols[ci].ints[row], 10), 0)
			case KindFloat:
				enc = append(strconv.AppendUint(append(enc, 'f'), math.Float64bits(s.cols[ci].floats[row]), 16), 0)
			}
		}
		b := groups[string(enc)]
		if b == nil {
			b = &bucket{key: s.groupKey(req.GroupBy, row)}
			k := string(enc)
			groups[k] = b
			keys = append(keys, k)
		}
		b.rows = append(b.rows, row)
	}
	sort.Slice(keys, func(i, j int) bool {
		return lessKey(groups[keys[i]].key, groups[keys[j]].key)
	})

	resp := &Response{
		Schema:      QuerySchema,
		GroupBy:     append([]string{}, req.GroupBy...),
		Aggregates:  make([]string, 0, len(req.Aggregates)),
		RowsScanned: len(s.order),
		RowsMatched: len(match),
		Groups:      make([]Group, 0, len(keys)),
	}
	for _, a := range req.Aggregates {
		resp.Aggregates = append(resp.Aggregates, a.Label())
	}
	for _, k := range keys {
		b := groups[k]
		g := Group{Key: b.key, Values: make([]any, 0, len(req.Aggregates))}
		if g.Key == nil {
			g.Key = []any{}
		}
		for _, a := range req.Aggregates {
			g.Values = append(g.Values, s.aggregate(a, b.rows))
		}
		resp.Groups = append(resp.Groups, g)
	}
	return resp, nil
}

// groupKey returns row's values of the group-by columns.
func (s *Store) groupKey(groupBy []string, row int) []any {
	key := make([]any, len(groupBy))
	for i, name := range groupBy {
		ci := colIndex[name]
		switch columns[ci].kind {
		case KindString:
			key[i] = s.cols[ci].strs[row]
		case KindInt:
			key[i] = s.cols[ci].ints[row]
		case KindFloat:
			key[i] = s.cols[ci].floats[row]
		}
	}
	return key
}

// rowMatches evaluates one filter against one row.
func (s *Store) rowMatches(row int, f Filter) bool {
	ci := colIndex[f.Column]
	if columns[ci].kind == KindString {
		cmp := strings.Compare(s.cols[ci].strs[row], f.Value.(string))
		switch f.Op {
		case "eq":
			return cmp == 0
		case "ne":
			return cmp != 0
		case "lt":
			return cmp < 0
		case "le":
			return cmp <= 0
		case "gt":
			return cmp > 0
		default: // ge
			return cmp >= 0
		}
	}
	var v float64
	if columns[ci].kind == KindInt {
		v = float64(s.cols[ci].ints[row])
	} else {
		v = s.cols[ci].floats[row]
	}
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
	default: // ge
		return v >= w
	}
}

// aggregate computes one aggregate over a group's rows (in canonical
// order). count reports the row count as an integer; the numeric ops
// fold the column's non-NaN values — mean as a plain left-to-right sum,
// percentiles by nearest rank over the ascending sort (index
// ceil(p·n)−1), both exactly the brute-force recomputation the property
// suite performs. An aggregate with no finite result reports nil, which
// encodes as JSON null (NaN and infinity have no JSON encoding).
func (s *Store) aggregate(a Aggregate, rows []int) any {
	if a.Op == "count" {
		return int64(len(rows))
	}
	ci := colIndex[a.Column]
	vals := make([]float64, 0, len(rows))
	for _, row := range rows {
		var v float64
		if columns[ci].kind == KindInt {
			v = float64(s.cols[ci].ints[row])
		} else {
			v = s.cols[ci].floats[row]
		}
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
		var sum float64
		for _, v := range vals {
			sum += v
		}
		out = sum / float64(len(vals))
	case "min":
		out = vals[0]
		for _, v := range vals[1:] {
			if v < out {
				out = v
			}
		}
	case "max":
		out = vals[0]
		for _, v := range vals[1:] {
			if v > out {
				out = v
			}
		}
	default: // p50, p95, p99
		sort.Float64s(vals)
		idx := int(math.Ceil(aggregateOps[a.Op]*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out = vals[idx]
	}
	if math.IsNaN(out) || math.IsInf(out, 0) {
		return nil
	}
	return out
}

// lessKey orders group keys column by column: strings
// lexicographically, numbers numerically. Kinds are positionally
// aligned by construction (same group-by columns). Floats compare in
// IEEE-754 total order, which matches numeric order for the finite
// values dimensions are limited to but also breaks the -0/+0 tie
// deterministically (they are distinct group keys).
func lessKey(a, b []any) bool {
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
			ao, bo := floatOrd(av), floatOrd(b[i].(float64))
			if ao != bo {
				return ao < bo
			}
		}
	}
	return false
}

// floatOrd maps a float64 onto an integer whose natural order is the
// IEEE-754 total order.
func floatOrd(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}
