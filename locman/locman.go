// Package locman is the public API of the library: mobile-terminal
// location management by distance-based location update and
// delay-constrained terminal paging, reproducing Akyildiz & Ho,
// "A Mobile User Location Update and Paging Mechanism Under Delay
// Constraints" (ACM SIGCOMM 1995).
//
// A terminal is described by its per-slot movement probability (MoveProb)
// and call-arrival probability (CallProb) on a one-dimensional or
// two-dimensional (hexagonal) cellular grid. Location updates cost
// UpdateCost each; polling one cell costs PollCost. Given a maximum paging
// delay of MaxDelay polling cycles, the library computes
//
//   - the stationary distribution of the terminal's distance from its last
//     reported cell (Stationary),
//   - the per-slot update, paging and total costs of operating at any
//     threshold distance (Evaluate),
//   - the optimal threshold d* (Optimize, OptimizeAnneal) and the paper's
//     cheap near-optimal d′ (NearOptimal),
//
// and validates the analysis with a simulator of the PCN system: terminals
// random-walk the real grids and signal an HLR with binary update and
// paging messages (SimulateNetwork, SimulateNetworkSharded). The classic
// baseline schemes (static location areas, time-based and movement-based
// updating) are available through SimulateBaseline.
//
// # Quick start
//
//	cfg := locman.Config{
//		Model:      locman.TwoDimensional,
//		MoveProb:   0.05,
//		CallProb:   0.01,
//		UpdateCost: 100,
//		PollCost:   10,
//		MaxDelay:   3,
//	}
//	res, err := locman.Optimize(cfg)
//	// res.Best.Threshold is d*, res.Best.Total is C_T(d*, m).
package locman

import (
	"context"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Model selects the mobility model.
type Model int

const (
	// OneDimensional is the 1-D line model (roads, tunnels, railways):
	// each cell has two neighbors.
	OneDimensional Model = iota
	// TwoDimensional is the 2-D hexagonal model with the exact
	// distance-dependent ring-transition probabilities.
	TwoDimensional
	// TwoDimensionalApprox is the 2-D model with the paper's
	// distance-independent approximation, which admits closed forms; use
	// it when optimization must be cheap (the paper's "near optimal"
	// pipeline uses it internally).
	TwoDimensionalApprox
)

// String names the model.
func (m Model) String() string { return m.chain().String() }

func (m Model) chain() chain.Model {
	switch m {
	case OneDimensional:
		return chain.OneDim
	case TwoDimensional:
		return chain.TwoDimExact
	case TwoDimensionalApprox:
		return chain.TwoDimApprox
	default:
		panic(fmt.Sprintf("locman: unknown model %d", int(m)))
	}
}

// Unbounded is the MaxDelay value meaning paging delay is unconstrained.
const Unbounded = paging.Unbounded

// Partition is a residing-area partitioning scheme. Obtain instances from
// SDF, Blanket, PerRing, EqualCells, OptimalDP, ProbOrder or
// PartitionByName.
type Partition = paging.Scheme

// SDF returns the paper's shortest-distance-first partitioner (the
// default).
func SDF() Partition { return paging.SDF{} }

// Blanket returns the single-cycle whole-area partitioner.
func Blanket() Partition { return paging.Blanket{} }

// PerRing returns the one-ring-per-cycle partitioner.
func PerRing() Partition { return paging.PerRing{} }

// EqualCells returns the cell-balanced partitioner.
func EqualCells() Partition { return paging.EqualCells{} }

// OptimalDP returns the dynamic-programming optimal partitioner (minimum
// expected polled cells under the delay bound).
func OptimalDP() Partition { return paging.OptimalDP{} }

// ProbOrder returns the probability-ordered optimal partitioner: rings
// are polled in decreasing per-cell probability and grouped optimally
// under the delay bound, so its groups need not be contiguous and its
// paging cost is never above OptimalDP's. PartitionByName does not
// resolve it.
func ProbOrder() Partition { return paging.ProbOrder{} }

// PartitionByName resolves "sdf", "blanket", "per-ring", "equal-cells" or
// "optimal-dp"; the error for an unknown name enumerates the valid ones.
func PartitionByName(name string) (Partition, error) { return paging.ByName(name) }

// PartitionNames lists the names PartitionByName resolves, for CLI help
// strings and error messages.
func PartitionNames() []string { return paging.Names() }

// Config describes one terminal's location-management problem.
type Config struct {
	// Model selects the grid and chain variant.
	Model Model
	// MoveProb is q: the per-slot probability of moving to a neighboring
	// cell. MoveProb + CallProb must not exceed 1.
	MoveProb float64
	// CallProb is c: the per-slot probability of an incoming call.
	CallProb float64
	// UpdateCost is U, the cost of one location update.
	UpdateCost float64
	// PollCost is V, the cost of polling one cell.
	PollCost float64
	// MaxDelay is m, the maximum paging delay in polling cycles;
	// Unbounded (0) means unconstrained.
	MaxDelay int
	// MaxThreshold bounds threshold searches; 0 means 200.
	MaxThreshold int
	// Partition overrides the paging partitioner; nil means SDF().
	Partition Partition
	// LegacyZeroRate reproduces the paper's published Table 1 and d′
	// numerics, which used the interior transition rate for the update
	// cost at threshold 0; see DESIGN.md §4. Leave false for the faithful
	// equations.
	LegacyZeroRate bool
}

func (c Config) internal() core.Config {
	return core.Config{
		Model:          c.Model.chain(),
		Params:         chain.Params{Q: c.MoveProb, C: c.CallProb},
		Costs:          core.Costs{Update: c.UpdateCost, Poll: c.PollCost},
		MaxDelay:       c.MaxDelay,
		Scheme:         c.Partition,
		LegacyZeroRate: c.LegacyZeroRate,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Model {
	case OneDimensional, TwoDimensional, TwoDimensionalApprox:
	default:
		return fmt.Errorf("locman: unknown model %d", int(c.Model))
	}
	if c.MaxThreshold < 0 {
		return fmt.Errorf("locman: negative MaxThreshold %d", c.MaxThreshold)
	}
	return c.internal().Validate()
}

// Breakdown is the evaluated cost of one (threshold, delay) operating
// point; see the field documentation in this package's Result type.
type Breakdown = core.Breakdown

// Result is the outcome of a threshold optimization: the best Breakdown,
// the scanned cost curve (when applicable) and the number of cost
// evaluations.
type Result = core.Result

// AnnealOptions tunes OptimizeAnneal; the zero value selects the paper's
// defaults.
type AnnealOptions = core.AnnealOptions

// Stationary returns the steady-state probabilities p_0..p_d of the
// terminal's ring distance from its last reported cell under threshold d.
func Stationary(m Model, moveProb, callProb float64, d int) ([]float64, error) {
	return chain.Stationary(m.chain(), chain.Params{Q: moveProb, C: callProb}, d)
}

// StationaryClosedForm is like Stationary but uses the paper's closed-form
// solution; it applies to OneDimensional and TwoDimensionalApprox only.
func StationaryClosedForm(m Model, moveProb, callProb float64, d int) ([]float64, error) {
	return chain.StationaryClosedForm(m.chain(), chain.Params{Q: moveProb, C: callProb}, d)
}

// Evaluate computes the cost breakdown of operating at threshold d.
func Evaluate(cfg Config, d int) (Breakdown, error) {
	if err := cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	return cfg.internal().Evaluate(d)
}

// Optimize finds the optimal threshold d* by exhaustive scan over
// 0..MaxThreshold (the paper's first method; immune to the local minima of
// the SDF cost curve).
func Optimize(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return core.Scan(cfg.internal(), cfg.MaxThreshold)
}

// OptimizeAnneal finds a (near-)optimal threshold by the paper's simulated
// annealing procedure.
func OptimizeAnneal(cfg Config, opts AnnealOptions) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if opts.MaxThreshold == 0 {
		opts.MaxThreshold = cfg.MaxThreshold
	}
	return core.Anneal(cfg.internal(), opts)
}

// NearOptimal runs the paper's low-computation pipeline: choose d′ with
// the approximate closed forms, optionally apply the 0→1 correction
// (correct=true, recommended), and price d′ with the exact model.
func NearOptimal(cfg Config, correct bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return core.NearOptimal(cfg.internal(), cfg.MaxThreshold, correct)
}

// NetworkConfig configures the discrete-event PCN system simulation.
type NetworkConfig struct {
	// Config embeds the analytical problem description.
	Config
	// Terminals is the population size (0 means 1; negative is refused).
	Terminals int
	// Threshold is the static threshold; negative means network-optimized
	// once from Config's parameters.
	Threshold int
	// Dynamic enables per-terminal online estimation and periodic
	// near-optimal re-optimization.
	Dynamic bool
	// ReoptimizeEvery is the dynamic re-optimization period in slots
	// (default 2000).
	ReoptimizeEvery int64
	// Fleet optionally declares a heterogeneous population as data; see
	// Fleet. Nil means every terminal uses Config's MoveProb and CallProb.
	Fleet *Fleet
	// Scheme selects the location-update trigger: nil means the paper's
	// distance scheme. TimerUpdate and MovementUpdate select the
	// comparative literature's alternatives; Threshold keeps its meaning
	// as the paging radius in every scheme. See UpdateScheme.
	Scheme UpdateScheme
	// Faults injects the full fault model — update/poll/reply loss, HLR
	// outage windows — and configures the recovery machinery (acked
	// updates with retransmission, recovery paging rounds, dropped-call
	// accounting). The zero value is a perfect signalling plane.
	Faults FaultPlan
	// SnapshotEvery switches on run telemetry: every SnapshotEvery slots
	// the simulation captures a cumulative snapshot Frame into
	// NetworkMetrics.Snapshots (plus one final frame at the run boundary).
	// The series is shard-count invariant like every other aggregate.
	// Zero disables the series; the latency histograms are always on.
	SnapshotEvery int64
	// Progress optionally receives live per-shard progress counters
	// (current slot, events processed) updated atomically while the
	// simulation runs; poll it with Progress.Snapshot from another
	// goroutine. Nil disables progress reporting.
	Progress *Progress
	// Seed seeds the deterministic simulation.
	Seed uint64
	// Engine selects the simulation engine: EngineCols (the zero value)
	// is the columnar cohort engine, EngineDES the reference event-driven
	// engine. Both produce bit-identical metrics, telemetry series and
	// histograms for every configuration; the choice is purely speed.
	Engine Engine
}

// Engine selects the PCN simulation engine implementation; see
// NetworkConfig.Engine.
type Engine = sim.Engine

// Engine implementations.
const (
	// EngineCols is the columnar cohort engine (the default): flat
	// per-terminal state columns walked in cache-sized cohorts with
	// geometric gap-sampling.
	EngineCols = sim.EngineCols
	// EngineDES is the reference event-driven engine.
	EngineDES = sim.EngineDES
)

// EngineByName resolves "cols" or "des", for CLI flags; the retired name
// "fast" resolves to EngineCols, and the error for an unknown name
// enumerates the valid ones.
func EngineByName(name string) (Engine, error) { return sim.EngineByName(name) }

// EngineNames lists the names EngineByName resolves, for CLI help
// strings and error messages.
func EngineNames() []string { return sim.EngineNames() }

// UpdateScheme selects the location-update trigger — the "when does the
// terminal report its location" half of the mechanism. Whatever the
// trigger, NetworkConfig.Threshold keeps its meaning as the paging
// radius. Obtain instances from DistanceUpdate, TimerUpdate,
// MovementUpdate or UpdateSchemeByName; see sim.UpdateScheme for the
// full semantics.
type UpdateScheme = sim.UpdateScheme

// DistanceUpdate returns the paper's distance-based trigger (the
// default): update when the distance from the registered center exceeds
// the threshold.
func DistanceUpdate() UpdateScheme { return sim.DistanceScheme{} }

// TimerUpdate returns the timer-based trigger: update every `every`
// slots since the last contact with the network.
func TimerUpdate(every int64) UpdateScheme { return sim.TimerScheme{Every: every} }

// MovementUpdate returns the movement-based trigger: update after count
// cell crossings since the last contact.
func MovementUpdate(count int64) UpdateScheme { return sim.MovementScheme{Count: count} }

// UpdateSchemeByName resolves "distance", "timer" or "movement" with its
// operating parameter (0 for distance), for CLI flags and job specs; the
// error for an unknown name enumerates the valid ones.
func UpdateSchemeByName(name string, param int64) (UpdateScheme, error) {
	return sim.SchemeByName(name, param)
}

// UpdateSchemeNames lists the names UpdateSchemeByName resolves, for CLI
// help strings and error messages.
func UpdateSchemeNames() []string { return sim.SchemeNames() }

// FaultPlan configures fault injection and recovery for the PCN system
// simulation; see the sim package for field semantics.
type FaultPlan = sim.FaultPlan

// Outage is one scheduled HLR outage window in slots [Start, End).
type Outage = sim.Outage

// NetworkMetrics is the outcome of a PCN system simulation, including
// signalling byte counts and the paging delay distribution.
type NetworkMetrics = sim.Metrics

// Frame is one cumulative run-telemetry snapshot; see
// NetworkConfig.SnapshotEvery.
type Frame = telemetry.Frame

// Summary is the five-number statistical summary a Frame carries for the
// delay and recovery-latency streams.
type Summary = telemetry.Summary

// Hist is a fixed-bucket latency histogram with deterministic merge; see
// NetworkMetrics.DelayHist and NetworkMetrics.RecoveryHist.
type Hist = telemetry.Hist

// Progress publishes live per-shard simulation progress; see
// NetworkConfig.Progress.
type Progress = telemetry.Progress

// ShardStatus is one shard's progress as reported by Progress.Snapshot.
type ShardStatus = telemetry.ShardStatus

// ValidateNetwork reports whether cfg describes a run of slots slots that
// the simulator will start, with the error the run would fail with. It
// makes exactly the checks every SimulateNetwork* entry point makes
// before any work starts.
func ValidateNetwork(cfg NetworkConfig, slots int64) error {
	_, err := cfg.simConfig(slots)
	return err
}

// simConfig builds the simulator configuration for a run of slots slots
// and checks it: the analytical parameters (Config.Validate), the fleet
// (Fleet.Validate), then everything the engines check (sim.Validate). It
// is the one place a run is validated; every entry point calls it.
func (cfg NetworkConfig) simConfig(slots int64) (sim.Config, error) {
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	sc := sim.Config{
		Core:            cfg.internal(),
		Terminals:       cfg.Terminals,
		Threshold:       cfg.Threshold,
		Dynamic:         cfg.Dynamic,
		ReoptimizeEvery: cfg.ReoptimizeEvery,
		MaxThreshold:    cfg.MaxThreshold,
		Scheme:          cfg.Scheme,
		Faults:          cfg.Faults,
		Telemetry: telemetry.Config{
			SnapshotEvery: cfg.SnapshotEvery,
			Progress:      cfg.Progress,
		},
		Seed:   cfg.Seed,
		Engine: cfg.Engine,
	}
	if cfg.Fleet != nil {
		// A fleet is rejected whole before the run starts: every group's
		// jitter extremes must be valid parameters, so no terminal can be
		// built invalid (the per-terminal shard-build check then never
		// fires for fleets).
		if err := cfg.Fleet.Validate(); err != nil {
			return sim.Config{}, err
		}
		sc.PerTerminal = cfg.Fleet.perTerminal(cfg.Seed)
	}
	if err := sim.Validate(sc, slots); err != nil {
		return sim.Config{}, err
	}
	return sc, nil
}

// SimulateNetwork runs the PCN system simulator for the given slots.
func SimulateNetwork(cfg NetworkConfig, slots int64) (*NetworkMetrics, error) {
	sc, err := cfg.simConfig(slots)
	if err != nil {
		return nil, err
	}
	return sim.Run(sc, slots)
}

// SimulateNetworkSharded is SimulateNetwork with the terminal population
// partitioned across shards independent discrete-event engines running in
// parallel. Results are bit-identical to SimulateNetwork for any shard
// count — per-terminal RNG streams are addressed by (Seed, terminal id),
// so determinism does not depend on the partition — while wall-clock time
// divides by the available cores. shards 0 selects GOMAXPROCS; negative
// values are rejected; shard counts beyond Terminals are clamped.
func SimulateNetworkSharded(cfg NetworkConfig, slots int64, shards int) (*NetworkMetrics, error) {
	return SimulateNetworkShardedCtx(context.Background(), cfg, slots, shards)
}

// SimulateNetworkShardedCtx is SimulateNetworkSharded under cooperative
// cancellation: cancelling ctx stops in-flight shards within a bounded
// amount of work and returns ctx.Err() instead of waiting for run
// completion. A run that finishes normally is bit-identical to
// SimulateNetworkSharded — the context machinery never perturbs the
// simulation. This is the entry point long-running services (pcnserve)
// use to honour job cancellation and per-job deadlines.
func SimulateNetworkShardedCtx(ctx context.Context, cfg NetworkConfig, slots int64, shards int) (*NetworkMetrics, error) {
	sc, err := cfg.simConfig(slots)
	if err != nil {
		return nil, err
	}
	return sim.RunShardedCtx(ctx, sc, slots, shards)
}

// BaselineScheme identifies a comparison scheme for SimulateBaseline.
type BaselineScheme = baseline.Scheme

// Baseline schemes (see package documentation): static location areas,
// periodic time-based updates, movement-count updates, and distance-based
// updates (this paper's trigger).
const (
	BaselineLA            = baseline.LA
	BaselineTimeBased     = baseline.TimeBased
	BaselineMovementBased = baseline.MovementBased
	BaselineDistanceBased = baseline.DistanceBased
)

// BaselineResult is the outcome of a baseline simulation.
type BaselineResult = baseline.Result

// SimulateBaseline evaluates a classic scheme under cfg's workload. param
// is scheme-specific: LA size/radius, update period τ, movement count M,
// or distance threshold d; the last three are paged within radius param
// inside one slot, which caps them at 1013.
func SimulateBaseline(cfg Config, scheme BaselineScheme, param int, slots int64, seed uint64) (BaselineResult, error) {
	if err := cfg.Validate(); err != nil {
		return BaselineResult{}, err
	}
	return baseline.Simulate(baselineConfig(cfg, scheme, param), slots, seed)
}
