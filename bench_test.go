// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7), plus ablations for the design choices called out in
// DESIGN.md: closed-form vs generic solvers, scan vs annealing vs
// near-optimal optimization, SDF vs alternative paging partitions, and the
// simulators' slot throughput.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/markov"
	"repro/internal/paging"
	"repro/internal/paperdata"
	"repro/internal/sim"
)

var tableParams = chain.Params{Q: paperdata.TableMoveProb, C: paperdata.TableCallProb}

// --- Experiment benchmarks: one per paper table/figure --------------------

// BenchmarkTable1 regenerates the paper's Table 1: for every U row and
// every delay column of the 1-D model, scan for the optimal threshold.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range paperdata.Table1 {
			for _, m := range paperdata.Table1Delays {
				cfg := core.Config{
					Model:          chain.OneDim,
					Params:         tableParams,
					Costs:          core.Costs{Update: row.U, Poll: paperdata.TablePollCost},
					MaxDelay:       m,
					LegacyZeroRate: true,
				}
				res, err := core.Scan(cfg, 100)
				if err != nil {
					b.Fatal(err)
				}
				if res.Best.Total <= 0 {
					b.Fatal("degenerate result")
				}
			}
		}
	}
	b.ReportMetric(float64(len(paperdata.Table1)*len(paperdata.Table1Delays)), "cells/op")
}

// BenchmarkTable2 regenerates the paper's Table 2: the exact 2-D optimum
// and the near-optimal closed-form pipeline for every cell.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, row := range paperdata.Table2 {
			for _, m := range paperdata.Table2Delays {
				costs := core.Costs{Update: row.U, Poll: paperdata.TablePollCost}
				exact := core.Config{Model: chain.TwoDimExact, Params: tableParams, Costs: costs, MaxDelay: m}
				if _, err := core.Scan(exact, 60); err != nil {
					b.Fatal(err)
				}
				near := exact
				near.LegacyZeroRate = true
				if _, err := core.NearOptimal(near, 60, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(paperdata.Table2)*len(paperdata.Table2Delays)), "cells/op")
}

func benchFigure(b *testing.B, model chain.Model, sweepQ bool) {
	b.Helper()
	xs := paperdata.Fig4MoveProbs
	if !sweepQ {
		xs = paperdata.Fig5CallProbs
	}
	for i := 0; i < b.N; i++ {
		for _, m := range paperdata.FigDelays {
			for _, x := range xs {
				params := chain.Params{Q: x, C: paperdata.Fig4CallProb}
				if !sweepQ {
					params = chain.Params{Q: paperdata.Fig5MoveProb, C: x}
				}
				cfg := core.Config{
					Model:    model,
					Params:   params,
					Costs:    core.Costs{Update: paperdata.FigUpdateCost, Poll: paperdata.FigPollCost},
					MaxDelay: m,
				}
				if _, err := core.Scan(cfg, 100); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(len(paperdata.FigDelays)*len(xs)), "points/op")
}

// BenchmarkFig4a regenerates Figure 4(a): 1-D optimal cost vs movement
// probability for four delay bounds.
func BenchmarkFig4a(b *testing.B) { benchFigure(b, chain.OneDim, true) }

// BenchmarkFig4b regenerates Figure 4(b): the 2-D exact model.
func BenchmarkFig4b(b *testing.B) { benchFigure(b, chain.TwoDimExact, true) }

// BenchmarkFig5a regenerates Figure 5(a): 1-D optimal cost vs call
// probability.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, chain.OneDim, false) }

// BenchmarkFig5b regenerates Figure 5(b): the 2-D exact model.
func BenchmarkFig5b(b *testing.B) { benchFigure(b, chain.TwoDimExact, false) }

// --- Solver ablations ------------------------------------------------------

// BenchmarkStationaryCutSolver measures the O(d) cut-balance solver.
func BenchmarkStationaryCutSolver(b *testing.B) {
	for _, d := range []int{5, 20, 100} {
		b.Run(sizeName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chain.Stationary(chain.TwoDimExact, tableParams, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStationaryClosedForm measures the paper's closed form (1-D and
// approximate 2-D).
func BenchmarkStationaryClosedForm(b *testing.B) {
	for _, d := range []int{5, 20, 100} {
		b.Run(sizeName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chain.StationaryClosedForm(chain.TwoDimApprox, tableParams, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStationaryDense measures the generic dense Gaussian solver on
// the same chain, quantifying what the structured solver saves.
func BenchmarkStationaryDense(b *testing.B) {
	for _, d := range []int{5, 20, 100} {
		b.Run(sizeName(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mc, err := markov.DistanceChain(chain.TwoDimExact, tableParams, d)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mc.Stationary(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(d int) string {
	switch d {
	case 5:
		return "d=5"
	case 20:
		return "d=20"
	default:
		return "d=100"
	}
}

// --- Optimizer ablation ------------------------------------------------------

// BenchmarkOptimizerScan, -Anneal and -NearOptimal compare the three ways
// of finding d* on the same Table 2 configuration (U=300, m=3).
func BenchmarkOptimizerScan(b *testing.B) {
	cfg := optimizerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.Scan(cfg, 60); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerAnneal(b *testing.B) {
	cfg := optimizerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.Anneal(cfg, core.AnnealOptions{MaxThreshold: 60, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerNearOptimal(b *testing.B) {
	cfg := optimizerConfig()
	for i := 0; i < b.N; i++ {
		if _, err := core.NearOptimal(cfg, 60, true); err != nil {
			b.Fatal(err)
		}
	}
}

func optimizerConfig() core.Config {
	return core.Config{
		Model:    chain.TwoDimExact,
		Params:   tableParams,
		Costs:    core.Costs{Update: 300, Poll: paperdata.TablePollCost},
		MaxDelay: 3,
	}
}

// --- Partition ablation ------------------------------------------------------

// BenchmarkPartitionAblation compares the expected polled cells of the
// paper's SDF partitioner against per-ring, equal-cells, the DP-optimal
// and the probability-ordered partitioners at m = 3 (reported as expected
// cells per call at d=10, the quality side of the speed/quality trade).
func BenchmarkPartitionAblation(b *testing.B) {
	const d = 10
	pi, err := chain.Stationary(chain.TwoDimExact, tableParams, d)
	if err != nil {
		b.Fatal(err)
	}
	rings := grid.TwoDimHex.RingSizes(d)
	schemes := []paging.Scheme{paging.SDF{}, paging.PerRing{}, paging.EqualCells{}, paging.OptimalDP{}, paging.ProbOrder{}}
	for _, s := range schemes {
		b.Run(s.Name(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				part := s.Partition(rings, pi, 3)
				last = part.ExpectedCells(pi)
			}
			b.ReportMetric(last, "cells/call")
		})
	}
}

// BenchmarkOptimizeMeanDelay measures the soft-QoS (expected-delay-bound)
// optimizer, which scans (d, m) jointly.
func BenchmarkOptimizeMeanDelay(b *testing.B) {
	cfg := optimizerConfig()
	cfg.MaxDelay = 0
	for i := 0; i < b.N; i++ {
		if _, err := core.OptimizeMeanDelay(cfg, 1.5, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineAnalysis measures the analytical baseline evaluations
// (closed-form LA, transient-chain time- and movement-based).
func BenchmarkBaselineAnalysis(b *testing.B) {
	cfgs := []baseline.Config{
		{Kind: grid.TwoDimHex, Params: tableParams, Costs: core.Costs{Update: 100, Poll: 10}, Scheme: baseline.LA, Param: 3},
		{Kind: grid.TwoDimHex, Params: tableParams, Costs: core.Costs{Update: 100, Poll: 10}, Scheme: baseline.TimeBased, Param: 40},
		{Kind: grid.TwoDimHex, Params: tableParams, Costs: core.Costs{Update: 100, Poll: 10}, Scheme: baseline.MovementBased, Param: 8},
	}
	names := []string{"la", "time", "movement"}
	for i, cfg := range cfgs {
		cfg := cfg
		b.Run(names[i], func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := baseline.Analyze(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Simulator throughput ----------------------------------------------------

// BenchmarkNetworkSimulator measures DES terminal-slots per second (10
// terminals).
func BenchmarkNetworkSimulator(b *testing.B) {
	cfg := sim.Config{
		Core: core.Config{
			Model:    chain.TwoDimExact,
			Params:   tableParams,
			Costs:    core.Costs{Update: 100, Poll: 10},
			MaxDelay: 3,
		},
		Terminals: 10,
		Threshold: 3,
		Seed:      1,
	}
	slots := int64(b.N)/10 + 1
	b.ResetTimer()
	if _, err := sim.Run(cfg, slots); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunSharded measures the simulation engines' scaling:
// terminal-slots per second at 10k–1M terminals, for the columnar
// cohort engine and the reference event-driven engine, for one shard
// (the single-threaded Run) versus one shard per core. Results are
// bit-identical across every variant (the engine-equivalence and
// shard-count-invariance contracts); only the wall clock changes.
func BenchmarkRunSharded(b *testing.B) {
	shardCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		shardCounts = append(shardCounts, p)
	}
	for _, engine := range []sim.Engine{sim.EngineCols, sim.EngineDES} {
		for _, terms := range []int{10_000, 100_000, 1_000_000} {
			for _, shards := range shardCounts {
				b.Run(fmt.Sprintf("engine=%s/terminals=%d/shards=%d", engine, terms, shards), func(b *testing.B) {
					cfg := sim.Config{
						Core: core.Config{
							Model:    chain.TwoDimExact,
							Params:   tableParams,
							Costs:    core.Costs{Update: 100, Poll: 10},
							MaxDelay: 3,
						},
						Terminals: terms,
						Threshold: 3,
						Seed:      1,
						Engine:    engine,
					}
					// Enough slots that steady-state slot work dominates the
					// per-run setup (terminal provisioning, RNG seeding);
					// at 4 slots the identical setup cost swamps both
					// engines and the comparison measures nothing.
					const slots = 64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := sim.RunSharded(cfg, slots, shards); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(terms)*slots*float64(b.N)/b.Elapsed().Seconds(),
						"terminal-slots/s")
				})
			}
		}
	}
}

// BenchmarkHotLoop measures the default engine's steady-state cost
// per terminal-slot with one long-running terminal, so the one-time setup
// amortizes to nothing: slots scale with b.N, making allocs/op the hot
// loop's true allocation rate — which must be zero. Movement is heavy
// (q=0.5, threshold crossings send real location updates to the HLR)
// but calls are off, isolating the slot loop from the paging machinery.
func BenchmarkHotLoop(b *testing.B) {
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
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := sim.Run(cfg, int64(b.N)+1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBaselineSimulator measures the baseline Monte-Carlo loop.
func BenchmarkBaselineSimulator(b *testing.B) {
	cfg := baseline.Config{
		Kind:   grid.TwoDimHex,
		Params: tableParams,
		Costs:  core.Costs{Update: 100, Poll: 10},
		Scheme: baseline.LA,
		Param:  2,
	}
	b.ResetTimer()
	if _, err := baseline.Simulate(cfg, int64(b.N)+1, 1); err != nil {
		b.Fatal(err)
	}
}
