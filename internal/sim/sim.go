// Package sim is a discrete-event simulator of a small personal
// communication network running the paper's location-management mechanism
// end to end: mobile terminals random-walk over the cell grid and send
// binary location-update messages when they cross their threshold distance;
// the fixed network keeps an HLR of (center cell, threshold) records and,
// on each incoming call, pages the residing area subarea by subarea with
// per-cell poll messages and waits one polling cycle per subarea for a
// reply.
//
// The paper evaluates this mechanism purely analytically; this package is
// the system the analysis describes. Its per-slot signalling costs converge
// to the analytical C_T (asserted in tests), and it additionally measures
// what the analysis cannot: wire bytes, per-call delay distributions, and
// the behaviour of the dynamic per-user scheme the paper's conclusions
// propose, in which each terminal estimates its own movement and call
// probabilities online (EWMA) and periodically re-optimizes its threshold
// with the cheap near-optimal closed form.
package sim

import (
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// SlotTicks is the number of scheduler ticks per time slot. Polling cycles
// occupy ticks inside the slot of the call's arrival, so the whole paging
// exchange completes before the next movement opportunity — matching the
// analytical model's assumption that paging is instantaneous relative to
// mobility.
const SlotTicks = 2048

// Engine selects the simulation engine implementation. Both engines
// produce bit-identical Metrics, telemetry series and histograms for every
// configuration — the equivalence contract enforced by
// TestFastPathEquivalence and locman's TestEngineEquivalence — so the
// choice is purely about speed.
type Engine int

const (
	// EngineCols is the columnar cohort engine (the default): per-terminal
	// hot state lives in flat parallel slices walked in cache-sized
	// cohorts, event-free stretches are skipped with exact geometric
	// gap-sampling (stats.EventGap) instead of per-slot draws, and the
	// event-queue machinery is touched only for the slots where paging,
	// ack/retry or fault handling actually fires. See runShardCols.
	EngineCols Engine = iota
	// EngineDES is the reference event-driven engine: one discrete-event
	// scheduler per shard sweeps the whole population every slot. It is
	// the slow, obviously-correct specification EngineCols is
	// differentially tested against.
	EngineDES
)

// retiredFastName is the name of the slot-batched engine EngineCols
// replaced. Journaled job specs, scripts and benchmark reports still say
// "fast"; the engines were bit-identical by contract, so the name
// resolves to EngineCols and every such run reproduces its bytes.
const retiredFastName = "fast"

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineCols:
		return "cols"
	case EngineDES:
		return "des"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// EngineNames lists the names EngineByName resolves, default first; CLI
// help strings and error messages are built from this single list so
// they can never drift from the parser. The retired name "fast" still
// resolves but is not advertised.
func EngineNames() []string {
	return []string{EngineCols.String(), EngineDES.String()}
}

// EngineByName resolves an engine name, for CLI flags. The error for an
// unknown name enumerates every valid one.
func EngineByName(name string) (Engine, error) {
	switch name {
	case EngineCols.String(), retiredFastName:
		return EngineCols, nil
	case EngineDES.String():
		return EngineDES, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (valid engines: %s)",
		name, strings.Join(EngineNames(), ", "))
}

// Config parameterizes a simulation run.
type Config struct {
	// Core carries the mobility model, default per-terminal parameters,
	// unit costs, the paging delay bound and the partitioning scheme.
	Core core.Config
	// Terminals is the population size; 0 means 1.
	Terminals int
	// Threshold is the static update threshold every terminal starts
	// with. Negative means "network-optimized": the optimal threshold for
	// Core's average parameters is computed once with core.Scan — the
	// static network-wide scheme of the paper's conclusions.
	Threshold int
	// Dynamic enables the per-user dynamic scheme: each terminal
	// estimates its q and c online and re-optimizes its threshold every
	// ReoptimizeEvery slots using the near-optimal pipeline.
	Dynamic bool
	// EWMAAlpha is the estimator's smoothing constant; 0 means 0.005.
	EWMAAlpha float64
	// ReoptimizeEvery is the dynamic re-optimization period in slots;
	// 0 means 2000, and a negative period is rejected.
	ReoptimizeEvery int64
	// MaxThreshold clamps optimized thresholds; 0 means 50 (the paper:
	// "the optimal distance rarely exceeds 50").
	MaxThreshold int
	// PerTerminal, when non-nil, supplies heterogeneous parameters for
	// terminal i, overriding Core.Params (used by the dynamic scheme
	// examples: the network cannot know individual behaviour a priori).
	PerTerminal func(i int) chain.Params
	// Scheme selects the location-update trigger. nil means
	// DistanceScheme{} — the paper's distance-based mechanism. The
	// dynamic per-user mechanism (Dynamic) requires the distance scheme,
	// whose threshold is its decision variable. See UpdateScheme.
	Scheme UpdateScheme
	// Faults injects signalling-plane failures (update/poll/reply loss,
	// HLR outage windows) and configures the recovery machinery (acked
	// updates with retransmission, recovery paging rounds). The zero
	// value is the paper's perfect signalling plane. See FaultPlan.
	Faults FaultPlan
	// Telemetry switches on the run-telemetry subsystem: periodic
	// snapshot frames of the cumulative counters (Metrics.Snapshots) and
	// live per-shard progress counters. Snapshots take no RNG draws and
	// schedule no events, so they never perturb the simulation; the
	// latency histograms (Metrics.DelayHist, Metrics.RecoveryHist) are
	// always on. The zero value records nothing beyond the final Metrics.
	Telemetry telemetry.Config
	// Seed seeds the simulation's deterministic RNG streams: terminal i
	// draws from stats.SubStream(Seed, i), so its stream depends only on
	// (Seed, i) — never on the population size ordering or the shard
	// partition (see RunSharded).
	Seed uint64
	// Engine selects the simulation engine. The zero value is EngineCols,
	// the columnar cohort engine; EngineDES selects the reference
	// event-driven engine. Both produce bit-identical results.
	Engine Engine
}

func (c Config) withDefaults() Config {
	if c.Terminals <= 0 {
		c.Terminals = 1
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.005
	}
	if c.ReoptimizeEvery == 0 {
		c.ReoptimizeEvery = 2000
	}
	if c.MaxThreshold == 0 {
		c.MaxThreshold = 50
	}
	// A zero AckTimeout/PageRetries means "unset": most callers never
	// touch the recovery knobs. Callers that genuinely want zero say so
	// with the ExplicitZero sentinel, which is folded to a literal zero
	// here so the engines and validation never see the sentinel.
	switch c.Faults.AckTimeout {
	case 0:
		c.Faults.AckTimeout = DefaultAckTimeout
	case ExplicitZero:
		c.Faults.AckTimeout = 0
	}
	switch c.Faults.PageRetries {
	case 0:
		c.Faults.PageRetries = DefaultPageRetries
	case ExplicitZero:
		c.Faults.PageRetries = 0
	}
	return c
}

// locator abstracts cell geometry over the two grids using wire.Cell as a
// universal coordinate (line cells encode as (index, 0)).
type locator interface {
	dist(a, b wire.Cell) int
	move(c wire.Cell, rng *stats.RNG) wire.Cell
}

type hexLocator struct{}

func (hexLocator) dist(a, b wire.Cell) int {
	return grid.Hex{Q: int(a.Q), R: int(a.R)}.Dist(grid.Hex{Q: int(b.Q), R: int(b.R)})
}

func (hexLocator) move(c wire.Cell, rng *stats.RNG) wire.Cell {
	n := grid.Hex{Q: int(c.Q), R: int(c.R)}.Neighbor(rng.Intn(6))
	return wire.Cell{Q: int32(n.Q), R: int32(n.R)}
}

type lineLocator struct{}

func (lineLocator) dist(a, b wire.Cell) int {
	return grid.Line(a.Q).Dist(grid.Line(b.Q))
}

func (lineLocator) move(c wire.Cell, rng *stats.RNG) wire.Cell {
	n := grid.Line(c.Q).Neighbor(rng.Intn(2))
	return wire.Cell{Q: int32(n)}
}

// HLRRecord is the fixed network's registry record for one terminal:
// the centre of its residing area and its threshold d, as set by the
// update with sequence number Seq. A shard's registry is one record per
// terminal (network.hlr), and a checkpoint carries the same records
// (ShardCheckpoint.HLR).
type HLRRecord struct {
	Center    wire.Cell
	Seq       uint32
	Threshold int
}

// estimator tracks EWMA estimates of a terminal's per-slot movement and
// call probabilities. Its smoothing constant is Config.EWMAAlpha, which
// the caller passes to observe.
type estimator struct {
	q, c float64
}

// observe folds one slot's outcome into the estimates with smoothing
// constant alpha. Each product sits in an explicit conversion: Go may
// fuse x*y + z into one multiply-add with a single rounding on some
// architectures (arm64, ppc64le, s390x), and the conversion forbids
// that, so every machine rounds as amd64 does and a checkpoint's
// estimates are the same bits everywhere.
func (e *estimator) observe(alpha float64, moved, called bool) {
	mv, cl := 0.0, 0.0
	if moved {
		mv = 1
	}
	if called {
		cl = 1
	}
	e.q += float64(alpha * (mv - e.q))
	e.c += float64(alpha * (cl - e.c))
}

// params returns the current estimates clamped to a valid chain.Params.
func (e *estimator) params() chain.Params {
	q, c := e.q, e.c
	if q < 0 {
		q = 0
	}
	if c < 0 {
		c = 0
	}
	if q+c > 1 {
		s := q + c
		q, c = q/s, c/s
	}
	return chain.Params{Q: q, C: c}
}

// terminal is the mobile side of one terminal, less the state the
// sweeps read every slot: its cell, its own view of its center and
// threshold, and its call and movement probabilities live in the
// network's columns (network.pos and the rest), indexed by id − first.
// Both engines hold one per terminal for the whole run, so the fields
// are ordered to leave no padding (the 4-byte fields pair up).
type terminal struct {
	id  uint32
	seq uint32
	rng *stats.RNG
	est estimator
	// retries counts retransmissions spent on the pending update
	// exchange; it resets when a fresh exchange starts.
	retries int
	// ackedSeq is the highest update sequence number the HLR has
	// acknowledged (meaningful only with FaultPlan.UpdateRetries > 0).
	ackedSeq uint32
	// desynced marks that the HLR's record has diverged from the
	// terminal's own view (a lost or outage-deferred update);
	// desyncedAt stamps its onset for the recovery-latency metric.
	desynced   bool
	desyncedAt des.Time
	// moves counts cell crossings since the terminal's last contact with
	// the network — the movement scheme's trigger state. Contact (an
	// update transmission or a successfully answered page) resets it, in
	// every scheme, so the counter carries no scheme-specific branches.
	moves int64
	// lastContact is the slot of that last contact — the timer scheme's
	// reference point. The initial registration at slot 0 counts.
	lastContact int64
}

// Run simulates the network for the given number of slots on a single
// discrete-event engine. It is exactly RunSharded(cfg, slots, 1): each
// terminal's RNG stream is addressed by (cfg.Seed, terminal id), so the
// results are bit-identical to any sharded run of the same configuration.
func Run(cfg Config, slots int64) (*Metrics, error) {
	return RunSharded(cfg, slots, 1)
}
