package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The read-only decoders of the gob checkpoint formats, PCNCKPT1 and
// PCNCKPT2. Gob sizes a decoded map or slice by the length the file
// claims, so these trust their input's lengths; they read only
// checkpoints an older binary wrote to the local data directory.

// ErrInexactLegacyMoments rejects a PCNCKPT1 checkpoint whose Welford
// states do not convert to exact integer moments.
var ErrInexactLegacyMoments = errors.New("sim: legacy checkpoint moments are not exact integer sums")

// decodeGob checks data's frame and gob-decodes the payload into v.
func decodeGob(magic []byte, what string, data []byte, v any) error {
	payload, err := unframe(magic, what, data)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("sim: decoding %s: %w", what, err)
	}
	return nil
}

// checkpointV1 is the part of a PCNCKPT1 payload the PCNCKPT2 layout
// dropped: the per-terminal Welford states of each shard's metrics and
// telemetry frames. Gob matches fields by name, so the rest of the
// payload decodes straight into Checkpoint.
type checkpointV1 struct {
	Shard []struct {
		Metrics struct {
			PerTerminal []struct{ Delay, Recovery stats.AccumulatorState }
		}
		Frames []struct {
			Slot            int64
			Counters        telemetry.Counters
			Delay, Recovery []stats.AccumulatorState
		}
	}
}

// decodeCheckpointV1 decodes a PCNCKPT1 checkpoint into cp, converting
// every shard's and frame's per-terminal Welford states into shard
// moments (recovery rescaled to ticks). It rejects the file with
// ErrInexactLegacyMoments when any recovered integer sum lies more than
// 1e-6 from the float it was rounded from.
func decodeCheckpointV1(data []byte, cp *Checkpoint) error {
	var old checkpointV1
	for _, into := range []any{cp, &old} {
		if err := decodeGob(ckptMagicV1, "checkpoint", data, into); err != nil {
			return err
		}
	}
	worst := 0.0
	for s := range cp.Shard {
		sc, o := &cp.Shard[s], &old.Shard[s]
		m := &sc.Metrics
		m.Delay, m.Recovery = stats.Moments{}, stats.NewMoments(SlotTicks)
		for _, ts := range o.Metrics.PerTerminal {
			worst = max(worst, m.Delay.AddWelford(ts.Delay), m.Recovery.AddWelford(ts.Recovery))
		}
		sc.Snapshots = make([]telemetry.ShardFrame, len(o.Frames))
		for k, f := range o.Frames {
			sf := telemetry.ShardFrame{Slot: f.Slot, Counters: f.Counters, Recovery: stats.NewMoments(SlotTicks)}
			for i := range f.Delay {
				worst = max(worst, sf.Delay.AddWelford(f.Delay[i]))
			}
			for i := range f.Recovery {
				worst = max(worst, sf.Recovery.AddWelford(f.Recovery[i]))
			}
			sc.Snapshots[k] = sf
		}
	}
	if worst > 1e-6 {
		return fmt.Errorf("%w (residual %g)", ErrInexactLegacyMoments, worst)
	}
	return nil
}
