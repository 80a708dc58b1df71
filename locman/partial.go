package locman

import (
	"context"

	"repro/internal/sim"
)

// Partial is the serializable outcome of running a contiguous slice of
// the shards of a sharded network simulation — the unit of work a
// cluster worker executes and ships to its coordinator. See sim.Partial
// for the cross-machine determinism contract.
type Partial = sim.Partial

// ShardPartial is one global shard's share of a Partial.
type ShardPartial = sim.ShardPartial

// PartialMismatchError reports a partial that does not describe the run
// it is being merged into (different slots, shard count or seed, or a
// shard slice that does not tile the partition); match it with
// errors.As.
type PartialMismatchError = sim.PartialMismatchError

// SimulateNetworkSlice runs shards [lo, hi) of a shards-way partition of
// the configured population: the worker half of a distributed run. The
// shard geometry is derived exactly as SimulateNetworkSharded derives
// it, so the partial is bit-identical to the same shards' share of a
// single-node run; shards must be explicit (a GOMAXPROCS default would
// differ across machines). Cancelling ctx stops in-flight shards within
// a bounded amount of work.
func SimulateNetworkSlice(ctx context.Context, cfg NetworkConfig, slots int64, shards, lo, hi int) (*Partial, error) {
	sc, err := cfg.simConfig(slots)
	if err != nil {
		return nil, err
	}
	return sim.RunPartial(ctx, sc, slots, shards, lo, hi)
}

// MergeNetworkPartials folds a complete set of partials — every shard of
// the shards-way partition exactly once, in any grouping and order —
// into the NetworkMetrics a single-node SimulateNetworkSharded of the
// same configuration would produce, bit for bit. Partials from a
// different run shape are rejected with *PartialMismatchError.
func MergeNetworkPartials(cfg NetworkConfig, slots int64, shards int, parts []*Partial) (*NetworkMetrics, error) {
	sc, err := cfg.simConfig(slots)
	if err != nil {
		return nil, err
	}
	return sim.MergePartials(sc, slots, shards, parts)
}

// EncodePartial serializes a partial to a self-checking byte format
// (magic header, columnar binary payload, CRC32 trailer); float64 state
// round-trips bit-for-bit across machines.
func EncodePartial(p *Partial) ([]byte, error) { return sim.EncodePartial(p) }

// DecodePartial parses bytes produced by EncodePartial, rejecting
// unknown formats and corrupted payloads. Validate the result with
// Partial.Validate before merging it.
func DecodePartial(data []byte) (*Partial, error) { return sim.DecodePartial(data) }
