package sim

import (
	"fmt"
	"testing"

	"repro/internal/chain"
)

// BenchmarkColsTelemetry measures what telemetry frames cost the
// columnar engine on the cluster benchmark's job shape (50k terminals,
// 256 slots, 4 shards, the paper's table point): every=0 takes no
// frames, every=16 takes one every 16 slots. Frames are folded from
// per-interval counts and cut no slot batch, so the two should run
// within a few percent of each other.
func BenchmarkColsTelemetry(b *testing.B) {
	const slots = 256
	for _, every := range []int64{0, 16} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			cfg := baseConfig(chain.TwoDimExact, 0.05, 0.01, 3, 3)
			cfg.Terminals = 50_000
			cfg.Telemetry.SnapshotEvery = every
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSharded(cfg, slots, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cfg.Terminals)*slots*float64(b.N)/b.Elapsed().Seconds(),
				"terminal-slots/s")
		})
	}
}
