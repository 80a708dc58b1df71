package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeRuns builds a plausible set of engine measurements without running
// real benchmarks (which would take minutes); the report-assembly and
// validation logic is what these tests pin down.
func fakeRuns(p Params) []Run {
	mk := func(engine string, terminals int, ns float64, hotAllocs int64) Run {
		tslots := float64(terminals) * float64(p.Slots)
		setup := int64(tslots / 100)
		return Run{
			Engine:              engine,
			Terminals:           terminals,
			Shards:              p.Shards,
			Slots:               p.Slots,
			NsPerTerminalSlot:   ns,
			TerminalSlotsPerSec: 1e9 / ns,
			AllocsPerOp:         setup + hotAllocs,
			BytesPerOp:          int64(tslots / 10),
			SetupAllocsPerOp:    setup,
			HotAllocsPerOp:      hotAllocs,
		}
	}
	return []Run{
		mk("cols", 10_000, 9, 0), mk("cols", 100_000, 8.5, 0),
		mk("des", 10_000, 40, 900), mk("des", 100_000, 45, 9000),
	}
}

func fakeHotLoops() []HotLoop {
	return []HotLoop{{Engine: "cols", NsPerTerminalSlot: 18}}
}

func fakeReport() *Report {
	p := defaultParams(256, 1)
	return buildReport(p, fakeRuns(p), fakeHotLoops())
}

// TestBuildReportSpeedups checks the derived speedups: one per population
// with a des run, carrying the columnar engine's throughput ratio.
func TestBuildReportSpeedups(t *testing.T) {
	rep := fakeReport()
	if len(rep.Speedups) != 2 {
		t.Fatalf("got %d speedups, want 2", len(rep.Speedups))
	}
	wantCols := map[int]float64{10_000: 40.0 / 9, 100_000: 45.0 / 8.5}
	near := func(got, want float64) bool {
		diff := got - want
		return diff < 1e-9 && diff > -1e-9
	}
	for _, s := range rep.Speedups {
		wc, ok := wantCols[s.Terminals]
		if !ok {
			t.Fatalf("unexpected speedup population %d", s.Terminals)
		}
		if !near(s.ColsOverDES, wc) {
			t.Errorf("cols speedup at %d terminals = %v, want %v", s.Terminals, s.ColsOverDES, wc)
		}
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
}

// TestValidateReport walks the invariants: the assembled report passes,
// and each single-field corruption is caught with a diagnostic naming it.
func TestValidateReport(t *testing.T) {
	if err := validateReport(fakeReport()); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"wrong schema", func(r *Report) { r.Schema = "bench-engine/v0" }, "schema"},
		{"retired v1 schema", func(r *Report) { r.Schema = "bench-engine/v1" }, "schema"},
		{"no runs", func(r *Report) { r.Runs = nil }, "no runs"},
		{"unknown engine", func(r *Report) { r.Runs[0].Engine = "warp" }, "unknown engine"},
		{"retired engine run", func(r *Report) { r.Runs[0].Engine = "fast" }, "unknown engine"},
		{"zero throughput", func(r *Report) { r.Runs[1].TerminalSlotsPerSec = 0 }, "non-positive"},
		{"duplicate run", func(r *Report) { r.Runs[1] = r.Runs[0] }, "duplicate"},
		{"broken alloc split", func(r *Report) { r.Runs[2].SetupAllocsPerOp++ }, "inconsistent with total"},
		{"allocating cols loop", func(r *Report) {
			r.Runs[0].AllocsPerOp += 7
			r.Runs[0].HotAllocsPerOp += 7
		}, "must not allocate"},
		{"orphan speedup", func(r *Report) { r.Speedups[0].Terminals = 777 }, "no des run"},
		{"inconsistent speedup", func(r *Report) { r.Speedups[0].ColsOverDES *= 2 }, "inconsistent with runs"},
		{"missing hot loops", func(r *Report) { r.HotLoops = nil }, "hot_loops"},
		{"des hot loop", func(r *Report) { r.HotLoops[0].Engine = "des" }, "invalid engine"},
		{"retired engine hot loop", func(r *Report) { r.HotLoops[0].Engine = "fast" }, "invalid engine"},
		{"duplicate hot loop", func(r *Report) { r.HotLoops = append(r.HotLoops, r.HotLoops[0]) }, "duplicate engine"},
		{"allocating hot loop", func(r *Report) { r.HotLoops[0].AllocsPerOp = 3 }, "must not allocate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := fakeReport()
			tc.mutate(rep)
			err := validateReport(rep)
			if err == nil {
				t.Fatal("corrupted report accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateRefusesV1Fields: the fields only a bench-engine/v1
// document carried, its single hot_loop section and the retired fast
// engine's speedup, fail strict decoding of an otherwise valid report.
func TestValidateRefusesV1Fields(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(doc map[string]any)
	}{
		{"hot loop section", func(doc map[string]any) {
			doc["hot_loop"] = map[string]any{"ns_per_terminal_slot": 1}
		}},
		{"retired engine speedup", func(doc map[string]any) {
			doc["speedups"].([]any)[0].(map[string]any)["fast_over_des"] = 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(fakeReport())
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			tc.mutate(doc)
			if data, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "BENCH_engine.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = run([]string{"-validate", path}, &strings.Builder{})
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("got %v, want an unknown-field error", err)
			}
		})
	}
}

// TestValidateFileRoundTrip writes the assembled report and validates it
// through the CLI path, then checks strict decoding rejects unknown
// fields.
func TestValidateFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_engine.json")
	if err := writeReport(path, fakeReport()); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-validate", path}, &out); err != nil {
		t.Fatalf("round-trip validation failed: %v", err)
	}
	if !strings.Contains(out.String(), "valid bench-engine/v2 report") {
		t.Errorf("confirmation missing from %q", out.String())
	}

	// An extension field must fail strict decoding.
	var doc map[string]any
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["vendor_extension"] = true
	data, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}, &strings.Builder{}); err == nil {
		t.Error("report with unknown field validated")
	}
}

// TestRunFlagValidation is the table-driven error-path coverage for the
// CLI surface.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"bad terminals", []string{"-terminals", "10,x"}, "terminals"},
		{"negative terminals", []string{"-terminals", "-5"}, "terminals"},
		{"unknown engine", []string{"-engines", "warp"}, "unknown engine"},
		{"duplicate engine", []string{"-engines", "cols,cols"}, "duplicate"},
		{"zero slots", []string{"-slots", "0"}, "slots"},
		{"zero reps", []string{"-reps", "0"}, "reps"},
		{"missing validate file", []string{"-validate", "no/such/report.json"}, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &strings.Builder{})
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseTerminals pins the list parser.
func TestParseTerminals(t *testing.T) {
	got, err := parseTerminals("10000, 100000,1000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10_000 || got[1] != 100_000 || got[2] != 1_000_000 {
		t.Errorf("parseTerminals = %v", got)
	}
	if _, err := parseTerminals(""); err == nil {
		t.Error("empty list accepted")
	}
}

// TestParseEngines pins the engine-list parser: the default list is
// every live engine, and the retired "fast" names the columnar engine,
// so listing both is a duplicate.
func TestParseEngines(t *testing.T) {
	got, err := parseEngines("des, cols")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].String() != "des" || got[1].String() != "cols" {
		t.Errorf("parseEngines = %v", got)
	}
	if _, err := parseEngines("fast,cols"); err == nil || !strings.Contains(err.Error(), "duplicate cols") {
		t.Errorf("fast,cols: err = %v, want a duplicate", err)
	}
}

// TestCheckedInBaselineValidates keeps the committed BENCH_engine.json a
// valid document of the live engines.
func TestCheckedInBaselineValidates(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-validate", filepath.Join("..", "..", "BENCH_engine.json")}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "valid bench-engine/v2 report") {
		t.Errorf("confirmation missing from %q", out.String())
	}
}
