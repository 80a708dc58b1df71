// Command benchreport measures the simulation engines' throughput and
// writes a machine-readable benchmark report:
//
//	benchreport -out BENCH_engine.json
//	benchreport -validate BENCH_engine.json
//
// The report (schema bench-engine/v2) records terminal-slots per second
// and allocation rates for the columnar cohort engine and the reference
// event-driven engine across population sizes, the columnar engine's
// steady-state hot-loop cost, and its speedup over DES. Per-run
// allocations are split into one-time setup (shard construction) and the
// residual charged to the slot loop, so "zero hot-loop allocs" is a
// measured claim rather than an asymptotic one. Both engines produce
// bit-identical results (locman's TestEngineEquivalence); this report
// tracks the wall-clock side of that contract. The -validate mode
// decodes a report strictly (unknown fields rejected) and checks its
// internal invariants, so CI can verify both the writer and a checked-in
// baseline. Only v2 documents are read: no bench-engine/v1 report, which
// measured the retired slot-batched "fast" engine, is kept anywhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/paperdata"
	"repro/internal/sim"
)

// Schema identifies the report layout; bump on breaking changes. A v2
// document names live engines only.
const Schema = "bench-engine/v2"

// Params pins the workload the measurements ran under: the paper's
// Table 1/2 parameters on the exact 2-D model.
type Params struct {
	Model      string  `json:"model"`
	Q          float64 `json:"q"`
	C          float64 `json:"c"`
	UpdateCost float64 `json:"update_cost"`
	PollCost   float64 `json:"poll_cost"`
	MaxDelay   int     `json:"max_delay"`
	Threshold  int     `json:"threshold"`
	Slots      int64   `json:"slots"`
	Shards     int     `json:"shards"`
}

// Run is one engine × population measurement. AllocsPerOp counts every
// allocation in a full run; since v2 it is split into SetupAllocsPerOp —
// the one-time shard-construction cost (terminal array, flat RNG
// backing, scheduler state), measured by a one-slot run of the same
// configuration — and HotAllocsPerOp, the residual charged to the slot
// loop (AllocsPerOp − SetupAllocsPerOp, clamped at zero).
type Run struct {
	Engine              string  `json:"engine"`
	Terminals           int     `json:"terminals"`
	Shards              int     `json:"shards"`
	Slots               int64   `json:"slots"`
	NsPerTerminalSlot   float64 `json:"ns_per_terminal_slot"`
	TerminalSlotsPerSec float64 `json:"terminal_slots_per_sec"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
	SetupAllocsPerOp    int64   `json:"setup_allocs_per_op"`
	HotAllocsPerOp      int64   `json:"hot_allocs_per_op"`
}

// HotLoop is a batched engine's steady-state cost with a single
// long-running terminal: slots scale with b.N so setup amortizes to
// nothing, making AllocsPerOp the slot loop's true allocation rate.
type HotLoop struct {
	Engine            string  `json:"engine"`
	NsPerTerminalSlot float64 `json:"ns_per_terminal_slot"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
}

// Speedup is the columnar engine's throughput advantage over the
// reference event-driven engine at one population.
type Speedup struct {
	Terminals   int     `json:"terminals"`
	ColsOverDES float64 `json:"cols_over_des,omitempty"`
}

// Report is the full document written to -out.
type Report struct {
	Schema   string    `json:"schema"`
	Params   Params    `json:"params"`
	Runs     []Run     `json:"runs"`
	HotLoops []HotLoop `json:"hot_loops,omitempty"`
	Speedups []Speedup `json:"speedups"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchreport: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process scaffolding, so tests can drive the full
// flag-to-output path in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	out := fs.String("out", "BENCH_engine.json", "output file for the report")
	termList := fs.String("terminals", "10000,100000,1000000", "comma-separated population sizes")
	engList := fs.String("engines", strings.Join(sim.EngineNames(), ","), "comma-separated engines to measure")
	slots := fs.Int64("slots", 256, "slots per run (large enough to amortize setup)")
	shards := fs.Int("shards", 1, "shard count for every run")
	reps := fs.Int("reps", 3, "repetitions per measurement; the best is kept")
	validate := fs.String("validate", "", "validate the report in this file instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		rep, err := readReport(*validate)
		if err != nil {
			return err
		}
		if err := validateReport(rep); err != nil {
			return fmt.Errorf("%s: %w", *validate, err)
		}
		fmt.Fprintf(stdout, "%s: valid %s report (%d runs)\n", *validate, rep.Schema, len(rep.Runs))
		return nil
	}

	terminals, err := parseTerminals(*termList)
	if err != nil {
		return err
	}
	engines, err := parseEngines(*engList)
	if err != nil {
		return err
	}
	if *slots <= 0 {
		return fmt.Errorf("slots %d must be positive", *slots)
	}
	if *reps <= 0 {
		return fmt.Errorf("reps %d must be positive", *reps)
	}

	params := defaultParams(*slots, *shards)
	var runs []Run
	for _, engine := range engines {
		for _, terms := range terminals {
			r := measureEngine(params, engine, terms, *reps)
			runs = append(runs, r)
			fmt.Fprintf(stdout, "%-4s %8d terminals: %11.0f terminal-slots/s (%.1f ns each, %d setup + %d hot allocs)\n",
				r.Engine, r.Terminals, r.TerminalSlotsPerSec, r.NsPerTerminalSlot,
				r.SetupAllocsPerOp, r.HotAllocsPerOp)
		}
	}
	var hots []HotLoop
	for _, engine := range engines {
		if engine == sim.EngineDES {
			continue // no slot loop to isolate: DES is event-driven
		}
		h := measureHotLoop(engine)
		hots = append(hots, h)
		fmt.Fprintf(stdout, "%-4s hot loop: %.1f ns/terminal-slot, %d allocs/op\n",
			h.Engine, h.NsPerTerminalSlot, h.AllocsPerOp)
	}

	rep := buildReport(params, runs, hots)
	for _, s := range rep.Speedups {
		fmt.Fprintf(stdout, "speedup %8d terminals: %.2fx cols over des\n",
			s.Terminals, s.ColsOverDES)
	}
	if err := writeReport(*out, rep); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}

// parseTerminals parses the -terminals list.
func parseTerminals(list string) ([]int, error) {
	var terminals []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("terminals %q: want a comma-separated list of positive counts", list)
		}
		terminals = append(terminals, n)
	}
	return terminals, nil
}

// parseEngines parses the -engines list, rejecting duplicates.
func parseEngines(list string) ([]sim.Engine, error) {
	var engines []sim.Engine
	for _, f := range strings.Split(list, ",") {
		e, err := sim.EngineByName(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("engines %q: %w", list, err)
		}
		for _, have := range engines {
			if have == e {
				return nil, fmt.Errorf("engines %q: duplicate %s", list, e)
			}
		}
		engines = append(engines, e)
	}
	return engines, nil
}

// defaultParams is the paper-typical workload every run measures under.
func defaultParams(slots int64, shards int) Params {
	return Params{
		Model:      "2d",
		Q:          paperdata.TableMoveProb,
		C:          paperdata.TableCallProb,
		UpdateCost: 100,
		PollCost:   paperdata.TablePollCost,
		MaxDelay:   3,
		Threshold:  3,
		Slots:      slots,
		Shards:     shards,
	}
}

// simConfig translates the report params into a simulator configuration.
func simConfig(p Params, engine sim.Engine, terminals int) sim.Config {
	return sim.Config{
		Core: core.Config{
			Model:    chain.TwoDimExact,
			Params:   chain.Params{Q: p.Q, C: p.C},
			Costs:    core.Costs{Update: p.UpdateCost, Poll: p.PollCost},
			MaxDelay: p.MaxDelay,
		},
		Terminals: terminals,
		Threshold: p.Threshold,
		Seed:      1,
		Engine:    engine,
	}
}

// measureEngine benchmarks one engine at one population size, keeping the
// best of reps repetitions (the minimum-noise estimate on a shared
// machine). A single-rep one-slot run of the same configuration measures
// the setup allocations; the rest of AllocsPerOp is charged to the slot
// loop.
func measureEngine(p Params, engine sim.Engine, terminals, reps int) Run {
	cfg := simConfig(p, engine, terminals)
	best := testing.BenchmarkResult{}
	for i := 0; i < reps; i++ {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunSharded(cfg, p.Slots, p.Shards); err != nil {
					b.Fatal(err)
				}
			}
		})
		if best.N == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	setup := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunSharded(cfg, 1, p.Shards); err != nil {
				b.Fatal(err)
			}
		}
	})
	hotAllocs := best.AllocsPerOp() - setup.AllocsPerOp()
	if hotAllocs < 0 {
		hotAllocs = 0
	}
	tslots := float64(terminals) * float64(p.Slots)
	nsPerOp := float64(best.NsPerOp())
	return Run{
		Engine:              engine.String(),
		Terminals:           terminals,
		Shards:              p.Shards,
		Slots:               p.Slots,
		NsPerTerminalSlot:   nsPerOp / tslots,
		TerminalSlotsPerSec: tslots / (nsPerOp / 1e9),
		AllocsPerOp:         best.AllocsPerOp(),
		BytesPerOp:          best.AllocedBytesPerOp(),
		SetupAllocsPerOp:    setup.AllocsPerOp(),
		HotAllocsPerOp:      hotAllocs,
	}
}

// measureHotLoop benchmarks a batched engine's steady-state slot loop:
// one terminal, slots scaling with b.N, calls off so the loop is isolated
// from the paging machinery (movement stays heavy: q = 0.5 crosses the
// threshold and sends real location updates to the HLR).
func measureHotLoop(engine sim.Engine) HotLoop {
	cfg := sim.Config{
		Core: core.Config{
			Model:    chain.TwoDimExact,
			Params:   chain.Params{Q: 0.5, C: 0},
			Costs:    core.Costs{Update: 100, Poll: 10},
			MaxDelay: 3,
		},
		Terminals: 1,
		Threshold: 3,
		Seed:      1,
		Engine:    engine,
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		if _, err := sim.Run(cfg, int64(b.N)+1); err != nil {
			b.Fatal(err)
		}
	})
	return HotLoop{
		Engine:            engine.String(),
		NsPerTerminalSlot: float64(res.NsPerOp()),
		AllocsPerOp:       res.AllocsPerOp(),
		BytesPerOp:        res.AllocedBytesPerOp(),
	}
}

// buildReport assembles the document: the raw runs, the hot loops, and
// the per-population speedups over DES derived from the runs.
func buildReport(p Params, runs []Run, hots []HotLoop) *Report {
	byKey := make(map[string]Run, len(runs))
	for _, r := range runs {
		byKey[fmt.Sprintf("%s/%d", r.Engine, r.Terminals)] = r
	}
	ratio := func(engine string, terminals int, des Run) float64 {
		r, ok := byKey[fmt.Sprintf("%s/%d", engine, terminals)]
		if !ok || des.TerminalSlotsPerSec <= 0 {
			return 0
		}
		return r.TerminalSlotsPerSec / des.TerminalSlotsPerSec
	}
	var speedups []Speedup
	for _, r := range runs {
		if r.Engine != sim.EngineDES.String() {
			continue
		}
		s := Speedup{
			Terminals:   r.Terminals,
			ColsOverDES: ratio(sim.EngineCols.String(), r.Terminals, r),
		}
		if s.ColsOverDES > 0 {
			speedups = append(speedups, s)
		}
	}
	return &Report{Schema: Schema, Params: p, Runs: runs, HotLoops: hots, Speedups: speedups}
}

// readReport decodes a report strictly: unknown fields are schema
// violations, not extensions (a v1 document's hot_loop or
// fast_over_des among them).
func readReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// validateReport checks a report's internal invariants: schema tag,
// positive finite measurements, speedups consistent with the runs they
// derive from, zero-alloc hot loops, and a setup/hot allocation split
// that sums back to the total with nothing charged to a batched
// engine's slot loop.
func validateReport(r *Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", r.Schema, Schema)
	}
	engines := sim.EngineNames()
	if len(r.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	tsps := make(map[string]float64, len(r.Runs))
	for i, run := range r.Runs {
		if !slices.Contains(engines, run.Engine) {
			return fmt.Errorf("run %d: unknown engine %q", i, run.Engine)
		}
		if run.Terminals <= 0 || run.Slots <= 0 || run.Shards <= 0 {
			return fmt.Errorf("run %d: non-positive dimensions", i)
		}
		if !positiveFinite(run.NsPerTerminalSlot) || !positiveFinite(run.TerminalSlotsPerSec) {
			return fmt.Errorf("run %d: non-positive measurements", i)
		}
		if run.AllocsPerOp < 0 || run.BytesPerOp < 0 || run.SetupAllocsPerOp < 0 || run.HotAllocsPerOp < 0 {
			return fmt.Errorf("run %d: negative allocation counts", i)
		}
		hot := run.AllocsPerOp - run.SetupAllocsPerOp
		if hot < 0 {
			hot = 0
		}
		if run.HotAllocsPerOp != hot {
			return fmt.Errorf("run %d: hot allocs %d inconsistent with total %d − setup %d",
				i, run.HotAllocsPerOp, run.AllocsPerOp, run.SetupAllocsPerOp)
		}
		if run.Engine != sim.EngineDES.String() && run.HotAllocsPerOp != 0 {
			return fmt.Errorf("run %d: %s engine charged %d hot-loop allocs/op — the slot loop must not allocate",
				i, run.Engine, run.HotAllocsPerOp)
		}
		key := fmt.Sprintf("%s/%d", run.Engine, run.Terminals)
		if _, dup := tsps[key]; dup {
			return fmt.Errorf("run %d: duplicate %s", i, key)
		}
		tsps[key] = run.TerminalSlotsPerSec
	}
	for i, s := range r.Speedups {
		des, okD := tsps[fmt.Sprintf("des/%d", s.Terminals)]
		if !okD {
			return fmt.Errorf("speedup %d: no des run at %d terminals", i, s.Terminals)
		}
		if s.ColsOverDES == 0 {
			return fmt.Errorf("speedup %d: empty entry at %d terminals", i, s.Terminals)
		}
		cols, ok := tsps[fmt.Sprintf("cols/%d", s.Terminals)]
		if !ok {
			return fmt.Errorf("speedup %d: no cols run at %d terminals", i, s.Terminals)
		}
		if want := cols / des; !positiveFinite(s.ColsOverDES) || math.Abs(s.ColsOverDES-want) > 1e-6*want {
			return fmt.Errorf("speedup %d: cols ratio %v inconsistent with runs (want %v)", i, s.ColsOverDES, want)
		}
	}
	if len(r.HotLoops) == 0 {
		return fmt.Errorf("document must carry the hot_loops section")
	}
	seen := make(map[string]bool, len(r.HotLoops))
	for i, h := range r.HotLoops {
		name := h.Engine
		if !slices.Contains(engines, name) || name == sim.EngineDES.String() {
			return fmt.Errorf("hot loop %d: invalid engine %q", i, name)
		}
		if seen[name] {
			return fmt.Errorf("hot loop %d: duplicate engine %s", i, name)
		}
		seen[name] = true
		if !positiveFinite(h.NsPerTerminalSlot) {
			return fmt.Errorf("hot loop %d: non-positive cost", i)
		}
		if h.AllocsPerOp != 0 || h.BytesPerOp != 0 {
			return fmt.Errorf("hot loop %d (%s): %d allocs/op, %d B/op — the steady-state loop must not allocate",
				i, name, h.AllocsPerOp, h.BytesPerOp)
		}
	}
	return nil
}

func positiveFinite(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// writeReport marshals the report with a trailing newline.
func writeReport(path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
