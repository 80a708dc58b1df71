package results

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fourRows is a small fixed table exercising every semantic corner:
// two scenarios, thresholds 1/2, one NaN metric, one all-NaN group.
func fourRows() []Row {
	nan := math.NaN()
	r1 := Row{Job: "j000001", Scenario: "baseline", Scheme: "distance", Engine: "des",
		Model: "2d", Partition: "sdf", D: 1, Q: 0.05, C: 0.01, U: 100, V: 10,
		Terminals: 20, Slots: 1000, Shards: 2, TotalCost: 10, Calls: 5, DelayP95: 2}
	r2 := Row{Job: "j000002", Scenario: "baseline", Scheme: "distance", Engine: "des",
		Model: "2d", Partition: "sdf", D: 2, Q: 0.05, C: 0.01, U: 100, V: 10,
		Terminals: 20, Slots: 1000, Shards: 2, TotalCost: 30, Calls: 7, DelayP95: nan}
	r3 := Row{Job: "j000003", Scenario: "rush", Scheme: "timer", SchemeParam: 6, Engine: "cols",
		Model: "1d", Partition: "sdf", D: 1, Q: 0.2, C: 0.01, U: 100, V: 10,
		Terminals: 20, Slots: 1000, Shards: 2, TotalCost: 20, Calls: 9, DelayP95: nan}
	r4 := Row{Job: "j000004", Scenario: "rush", Scheme: "timer", SchemeParam: 6, Engine: "cols",
		Model: "1d", Partition: "sdf", D: 1, Q: 0.2, C: 0.01, U: 100, V: 10,
		Terminals: 20, Slots: 1000, Shards: 2, TotalCost: 40, Calls: 11, DelayP95: nan}
	return []Row{r1, r2, r3, r4}
}

func storeWith(t *testing.T, rows []Row) *Store {
	t.Helper()
	s := NewStore()
	for _, r := range rows {
		if err := s.Ingest(r); err != nil {
			t.Fatalf("ingest %s: %v", r.Job, err)
		}
	}
	return s
}

// TestQuerySemantics pins the filter/group-by/aggregate semantics on a
// hand-checked table, comparing the full JSON response documents.
func TestQuerySemantics(t *testing.T) {
	cases := []struct {
		name string
		rows []Row
		req  string // JSON request
		want string // JSON response (compact)
	}{
		{
			name: "empty store, ungrouped count",
			rows: nil,
			req:  `{"aggregates":[{"op":"count"}]}`,
			want: `{"schema":1,"group_by":[],"aggregates":["count"],"rows_scanned":0,"rows_matched":0,"groups":[]}`,
		},
		{
			name: "no group_by folds all rows into one group with an empty key",
			rows: fourRows(),
			req:  `{"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"}]}`,
			want: `{"schema":1,"group_by":[],"aggregates":["count","mean(total_cost)"],"rows_scanned":4,"rows_matched":4,"groups":[{"key":[],"values":[4,25]}]}`,
		},
		{
			name: "filter matching nothing yields no groups at all",
			rows: fourRows(),
			req:  `{"filter":[{"column":"scenario","op":"eq","value":"nope"}],"aggregates":[{"op":"count"}]}`,
			want: `{"schema":1,"group_by":[],"aggregates":["count"],"rows_scanned":4,"rows_matched":0,"groups":[]}`,
		},
		{
			name: "group by scenario and d, sorted by key",
			rows: fourRows(),
			req:  `{"group_by":["scenario","d"],"aggregates":[{"op":"count"},{"op":"max","column":"total_cost"}]}`,
			want: `{"schema":1,"group_by":["scenario","d"],"aggregates":["count","max(total_cost)"],"rows_scanned":4,"rows_matched":4,"groups":[{"key":["baseline",1],"values":[1,10]},{"key":["baseline",2],"values":[1,30]},{"key":["rush",1],"values":[2,40]}]}`,
		},
		{
			name: "single-row groups",
			rows: fourRows(),
			req:  `{"group_by":["job"],"aggregates":[{"op":"min","column":"calls"}]}`,
			want: `{"schema":1,"group_by":["job"],"aggregates":["min(calls)"],"rows_scanned":4,"rows_matched":4,"groups":[{"key":["j000001"],"values":[5]},{"key":["j000002"],"values":[7]},{"key":["j000003"],"values":[9]},{"key":["j000004"],"values":[11]}]}`,
		},
		{
			name: "NaN metrics are skipped, all-NaN aggregates report null",
			rows: fourRows(),
			req:  `{"group_by":["scenario"],"aggregates":[{"op":"mean","column":"delay_p95"},{"op":"p50","column":"delay_p95"}]}`,
			want: `{"schema":1,"group_by":["scenario"],"aggregates":["mean(delay_p95)","p50(delay_p95)"],"rows_scanned":4,"rows_matched":4,"groups":[{"key":["baseline"],"values":[2,2]},{"key":["rush"],"values":[null,null]}]}`,
		},
		{
			name: "numeric filters on int columns take JSON numbers",
			rows: fourRows(),
			req:  `{"filter":[{"column":"d","op":"le","value":1.5},{"column":"calls","op":"gt","value":5}],"aggregates":[{"op":"count"}]}`,
			want: `{"schema":1,"group_by":[],"aggregates":["count"],"rows_scanned":4,"rows_matched":2,"groups":[{"key":[],"values":[2]}]}`,
		},
		{
			name: "ne on a NaN metric is true (IEEE semantics), eq false",
			rows: fourRows(),
			req:  `{"filter":[{"column":"delay_p95","op":"ne","value":2}],"group_by":["scenario"],"aggregates":[{"op":"count"}]}`,
			want: `{"schema":1,"group_by":["scenario"],"aggregates":["count"],"rows_scanned":4,"rows_matched":3,"groups":[{"key":["baseline"],"values":[1]},{"key":["rush"],"values":[2]}]}`,
		},
		{
			name: "float dimension group keys",
			rows: fourRows(),
			req:  `{"group_by":["q"],"aggregates":[{"op":"p99","column":"total_cost"}]}`,
			want: `{"schema":1,"group_by":["q"],"aggregates":["p99(total_cost)"],"rows_scanned":4,"rows_matched":4,"groups":[{"key":[0.05],"values":[30]},{"key":[0.2],"values":[40]}]}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := storeWith(t, tc.rows)
			req, err := DecodeRequest([]byte(tc.req))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			resp, err := s.Query(req)
			if err != nil {
				t.Fatalf("query: %v", err)
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if string(got) != tc.want {
				t.Fatalf("response mismatch\ngot:  %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestRequestValidation holds every rejection to the enumerate-the-
// valid-names error convention.
func TestRequestValidation(t *testing.T) {
	cases := []struct {
		name    string
		req     string
		wantSub string
	}{
		{"unknown filter column", `{"filter":[{"column":"nope","op":"eq","value":1}],"aggregates":[{"op":"count"}]}`,
			"valid columns:"},
		{"unknown filter op", `{"filter":[{"column":"d","op":"like","value":1}],"aggregates":[{"op":"count"}]}`,
			`unknown filter op "like" (valid ops: eq, ne, lt, le, gt, ge)`},
		{"string value on numeric column", `{"filter":[{"column":"d","op":"eq","value":"x"}],"aggregates":[{"op":"count"}]}`,
			"needs a number"},
		{"number value on string column", `{"filter":[{"column":"scenario","op":"eq","value":3}],"aggregates":[{"op":"count"}]}`,
			"needs a string"},
		{"bool filter value", `{"filter":[{"column":"d","op":"eq","value":true}],"aggregates":[{"op":"count"}]}`,
			"unsupported value"},
		{"unknown group_by column", `{"group_by":["nope"],"aggregates":[{"op":"count"}]}`,
			"valid columns:"},
		{"metric group_by column", `{"group_by":["total_cost"],"aggregates":[{"op":"count"}]}`,
			"valid dimensions:"},
		{"duplicate group_by", `{"group_by":["d","d"],"aggregates":[{"op":"count"}]}`,
			`duplicate group_by column "d"`},
		{"no aggregates", `{"group_by":["d"]}`,
			"at least one aggregate is required (valid ops: count, mean, min, max, p50, p95, p99)"},
		{"unknown aggregate op", `{"aggregates":[{"op":"median","column":"total_cost"}]}`,
			`unknown aggregate op "median" (valid ops: count, mean, min, max, p50, p95, p99)`},
		{"count with a column", `{"aggregates":[{"op":"count","column":"d"}]}`,
			"count takes no column"},
		{"aggregate without a column", `{"aggregates":[{"op":"mean"}]}`,
			"valid columns:"},
		{"aggregate on a string column", `{"aggregates":[{"op":"mean","column":"scenario"}]}`,
			"needs a numeric column"},
		{"duplicate aggregate", `{"aggregates":[{"op":"count"},{"op":"count"}]}`,
			"duplicate aggregate count"},
		{"wrong schema", `{"schema":9,"aggregates":[{"op":"count"}]}`,
			"query schema 9, want 1"},
		{"unknown field", `{"nope":1,"aggregates":[{"op":"count"}]}`,
			"invalid query request"},
		{"trailing data", `{"aggregates":[{"op":"count"}]} {}`,
			"trailing data"},
		{"not an object", `[1,2,3]`,
			"invalid query request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest([]byte(tc.req))
			if err == nil {
				t.Fatalf("request %s decoded without error", tc.req)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestColumnLookup covers the name helpers the CLIs build on.
func TestColumnLookup(t *testing.T) {
	if _, err := ColumnKind("nope"); err == nil || !strings.Contains(err.Error(), "valid columns:") {
		t.Fatalf("unknown column error %v does not enumerate valid names", err)
	}
	k, err := ColumnKind("scenario")
	if err != nil || k != KindString {
		t.Fatalf("scenario kind = %v, %v", k, err)
	}
	if k, _ := ColumnKind("d"); k != KindInt {
		t.Fatalf("d kind = %v", k)
	}
	if k, _ := ColumnKind("total_cost"); k != KindFloat {
		t.Fatalf("total_cost kind = %v", k)
	}
	names := ColumnNames()
	dims := DimensionNames()
	if len(dims) == 0 || len(dims) >= len(names) {
		t.Fatalf("%d dimensions of %d columns", len(dims), len(names))
	}
	for _, d := range dims {
		if _, err := ColumnKind(d); err != nil {
			t.Fatalf("dimension %q unknown: %v", d, err)
		}
	}
}
