package locman

import (
	"context"

	"repro/internal/sim"
)

// Checkpoint is a serializable snapshot of a network simulation at a
// slot boundary, sufficient to resume the run with bit-identical final
// results; see sim.Checkpoint for the determinism contract.
type Checkpoint = sim.Checkpoint

// EncodeCheckpoint serializes a checkpoint to a self-checking byte
// format (magic header, columnar binary payload, CRC32 trailer); equal
// checkpoints encode to equal bytes.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) { return sim.EncodeCheckpoint(cp) }

// CheckpointFrame is a checkpoint's encoding held in pieces, ready to
// stream to a writer (WriteTo) without the checkpoint it was framed from
// and without assembling the bytes in memory; see sim.CheckpointFrame.
type CheckpointFrame = sim.CheckpointFrame

// FrameCheckpoint frames cp; its WriteTo writes EncodeCheckpoint's bytes.
func FrameCheckpoint(cp *Checkpoint) *CheckpointFrame { return sim.FrameCheckpoint(cp) }

// DecodeCheckpoint parses bytes produced by EncodeCheckpoint, rejecting
// unknown formats, corrupted payloads and the retired gob formats, the
// last with sim.ErrRetiredCheckpointFormat.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return sim.DecodeCheckpoint(data) }

// SimulateNetworkCheckpointed is SimulateNetworkShardedCtx with periodic
// checkpoints: every multiple of every slots (interior boundaries only),
// a consistent whole-run Checkpoint is handed to sink, in increasing
// slot order, from a shard goroutine; the shards wait for the sink to
// return before delivering the next one. Each shard encodes its section
// of the checkpoint straight from its live state, and the delivered
// checkpoint carries its head fields (Slot, Shards, Seed, ...) and those
// sections only: EncodeCheckpoint and FrameCheckpoint frame them,
// ResumeNetworkCheckpointed accepts it as it is, and a sink that wants
// the per-shard fields (Checkpoint.Shard) decodes its encoding.
// Checkpointing never perturbs the simulation: the returned metrics are
// bit-identical to an unobserved run.
func SimulateNetworkCheckpointed(ctx context.Context, cfg NetworkConfig, slots int64, shards int, every int64, sink func(*Checkpoint)) (*NetworkMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	return sim.RunShardedOpts(ctx, sc, slots, shards, sim.RunOpts{
		CheckpointEvery: every,
		CheckpointSink:  sink,
	})
}

// ResumeNetworkCheckpointed continues a run from cp instead of slot 0,
// optionally emitting further checkpoints (every > 0). The configuration
// must describe the same run the checkpoint was taken from (slots, seed,
// shard count, starting threshold, engine class); the final metrics —
// and hence the Report built from them — are then byte-identical to an
// uninterrupted run. shards 0 adopts the checkpoint's shard count.
func ResumeNetworkCheckpointed(ctx context.Context, cfg NetworkConfig, slots int64, shards int, cp *Checkpoint, every int64, sink func(*Checkpoint)) (*NetworkMetrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sc, err := cfg.simConfig()
	if err != nil {
		return nil, err
	}
	return sim.RunShardedOpts(ctx, sc, slots, shards, sim.RunOpts{
		Resume:          cp,
		CheckpointEvery: every,
		CheckpointSink:  sink,
	})
}
