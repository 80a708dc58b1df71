package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every population and table a thousandfold, so all
// workloads, untraced and traced, run in a few seconds.
const smokeScale = 1000

func smokeOptions(t *testing.T, trace bool) options {
	return options{seed: 7, trace: trace, scale: smokeScale, out: t.TempDir()}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each reports exactly its declared metrics, all finite,
// with every result correct.
func TestSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				o := smokeOptions(t, trace)
				res, err := runWorkload(ctx, w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.failures)
				}
				var want, got []string
				for _, m := range metricDefs(trace) {
					want = append(want, m.Name)
				}
				for name, v := range res.Metrics {
					got = append(got, name)
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s = %v", name, v.Value)
					}
				}
				if !sameSet(want, got) {
					t.Errorf("metrics %v, declared %v", got, want)
				}
				if trace {
					checkTraceFile(t, filepath.Join(o.out, w.name+".trace.json"), res)
				}
			})
		}
	}
}

// checkTraceFile holds the written trace to the run: its rollup is the
// rollup of its own spans, and the printed rollup shows the same rows.
func checkTraceFile(t *testing.T, path string, res *outcome) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("trace file has no spans")
	}
	if again := rollup(doc.Spans); !reflect.DeepEqual(again, doc.Rollup) {
		t.Errorf("trace file rollup disagrees with its spans:\n%v\n%v", doc.Rollup, again)
	}
	var out bytes.Buffer
	report(&out, &bytes.Buffer{}, "w", res, true)
	for _, row := range doc.Rollup {
		line := fmt.Sprintf("%-20s %12.4f ms", row.Layer, row.SelfMsPerJob)
		if !strings.Contains(out.String(), line) {
			t.Errorf("printed rollup lacks %q", line)
		}
	}
}

// TestCorruptReferenceFails proves the correctness gate: once a
// reference report is wrong, jobs that return the right bytes fail.
func TestCorruptReferenceFails(t *testing.T) {
	w, err := workloadByName("service")
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t, false)
	o.corrupt = func(p *prepared) { p.refs[0] = append([]byte("x"), p.refs[0]...) }
	res, err := runWorkload(context.Background(), w, o)
	if err == nil && (res.Correct || res.Failed == 0) {
		t.Fatalf("a corrupted reference passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the harness reads, in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		whys = append(whys, w.Why)
	}
	var wantNames, wantWhys []string
	for _, w := range workloads {
		wantNames = append(wantNames, w.name)
		wantWhys = append(wantWhys, w.why)
	}
	if !reflect.DeepEqual(names, wantNames) || !reflect.DeepEqual(whys, wantWhys) {
		t.Errorf("workloads %v %q, code has %v %q", names, whys, wantNames, wantWhys)
	}
	var e2e []metricDef
	largest := ""
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if largest == "" || m.Bound > boundOf(bf, largest) {
			largest = m.Name
		}
	}
	if boundOf(bf, "setup_s") < boundOf(bf, largest) {
		t.Errorf("setup_s bound %v is not the largest", boundOf(bf, "setup_s"))
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer %v, code reports %v", bf.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || len(bf.Command) == 0 {
		t.Errorf("command %q, paths %q", bf.Command, bf.Paths)
	}
}

// TestChildArgsNameOneWorkload checks that each child runAll starts runs
// the one workload it was started for, whatever -workload the caller
// passed, so a run of all workloads never starts another.
func TestChildArgsNameOneWorkload(t *testing.T) {
	for _, args := range [][]string{nil, {"-seed", "3"}, {"-workload="}, {"--workload", ""}, {"-workload", "bulk"}} {
		for _, w := range workloads {
			s, err := parseSettings(childArgs(args, w.name), io.Discard)
			if err != nil {
				t.Fatalf("args %q: %v", args, err)
			}
			if s.workload != w.name {
				t.Errorf("args %q: child for %s runs workload %q", args, w.name, s.workload)
			}
		}
	}
}

func boundOf(bf *benchmarkFile, name string) float64 {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return math.NaN()
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int)
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		if seen[x]--; seen[x] < 0 {
			return false
		}
	}
	return true
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int64]int64 // self time per span id
	}{
		{
			name:  "leaf",
			spans: []span{{ID: 1, Start: 0, End: 10}},
			want:  map[int64]int64{1: 10},
		},
		{
			name: "nested",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 60},
				{ID: 3, Parent: 2, Start: 20, End: 30},
			},
			want: map[int64]int64{1: 50, 2: 40, 3: 10},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 50},
				{ID: 3, Parent: 1, Start: 40, End: 70},
				{ID: 4, Parent: 1, Start: 80, End: 90},
			},
			want: map[int64]int64{1: 30, 2: 40, 3: 30, 4: 10},
		},
		{
			name: "a child reaching outside its parent covers only the inside",
			spans: []span{
				{ID: 1, Start: 10, End: 50},
				{ID: 2, Parent: 1, Start: 0, End: 20},
				{ID: 3, Parent: 1, Start: 45, End: 60},
			},
			want: map[int64]int64{1: 25, 2: 20, 3: 15},
		},
		{
			name: "children covering the parent leave nothing",
			spans: []span{
				{ID: 1, Start: 0, End: 10},
				{ID: 2, Parent: 1, Start: 0, End: 6},
				{ID: 3, Parent: 1, Start: 5, End: 10},
			},
			want: map[int64]int64{1: 0, 2: 6, 3: 5},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
				t.Errorf("self times %v, want %v", got, c.want)
			}
		})
	}
}

// TestRollupUnionsConcurrentCalls checks that two concurrent calls of
// one layer in a job count their wall time once, while a layer's calls
// in different jobs are separate samples.
func TestRollupUnionsConcurrentCalls(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Job: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "slice.run", Job: "a", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "slice.run", Job: "a", Start: 10, End: 70},
		{ID: 4, Parent: 1, Name: "merge", Job: "a", Start: 70, End: 100},
		{ID: 5, Name: "job", Job: "b", Start: 200, End: 300},
		{ID: 6, Parent: 5, Name: "slice.run", Job: "b", Start: 200, End: 290},
		{ID: 7, Parent: 5, Name: "merge", Job: "b", Start: 290, End: 300},
	}
	want := []layerRow{
		{Layer: "job", Calls: 2, Jobs: 2, SelfMsPerJob: 0},
		{Layer: "merge", Calls: 2, Jobs: 2, SelfMsPerJob: 20e-6},
		{Layer: "slice.run", Calls: 3, Jobs: 2, SelfMsPerJob: 80e-6},
	}
	if got := rollup(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("rollup %+v, want %+v", got, want)
	}
}

func TestJudge(t *testing.T) {
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i%5)
		}
		return out
	}
	cases := []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"clear gain, lower is better", seq(100, 1), seq(80, 1), "lower", 0.1, "gain"},
		{"clear gain, higher is better", seq(100, 1), seq(120, 1), "higher", 0.1, "gain"},
		{"same runs", seq(100, 1), seq(100, 1), "lower", 0.1, "unchanged"},
		{"small loss within the bound", seq(100, 1), seq(105, 1), "lower", 0.1, "unchanged"},
		{"loss beyond the bound", seq(100, 1), seq(120, 1), "lower", 0.1, "regression"},
		{"throughput loss beyond the bound", seq(100, 1), seq(80, 1), "higher", 0.1, "regression"},
		{"spread wider than the bound", seq(100, 10), seq(100, 10), "lower", 0.1, "unresolved"},
		{"noisy loss is unresolved", seq(100, 10), seq(115, 10), "lower", 0.1, "unresolved"},
		{"noisy loss that every run shows is a regression", seq(100, 3), seq(160, 3), "lower", 0.05, "regression"},
		{
			"8 of 10 pair wins is no gain",
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 90, 90, 90, 90, 110, 110},
			"lower", 0.25, "unchanged",
		},
		{
			"a median gap inside the parent's spread is no gain",
			[]float64{100, 90, 110, 100, 90, 110, 100, 90, 110, 100},
			[]float64{99, 89, 109, 99, 89, 109, 99, 89, 109, 99},
			"lower", 0.25, "unchanged",
		},
		{"too few pairs for a gain", seq(100, 1)[:9], seq(80, 1)[:9], "lower", 0.1, "unchanged"},
		{
			"nine wins and a tie is a gain",
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{100, 90, 90, 90, 90, 90, 90, 90, 90, 90},
			"lower", 0.25, "gain",
		},
		{
			"ties are not wins",
			[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{100, 100, 90, 90, 90, 90, 90, 90, 90, 90},
			"lower", 0.25, "unchanged",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := judge(c.parent, c.change, c.better, c.bound)
			if v.Call != c.want {
				t.Errorf("verdict %s (wins %d losses %d of %d, parent %v, change %v), want %s",
					v.Call, v.Wins, v.Losses, v.Pairs, v.Parent, v.Change, c.want)
			}
		})
	}
}
