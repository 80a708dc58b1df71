package stats

// Geometric gap-sampling: draw the slot of the next event directly
// instead of asking "did it happen?" once per slot at the caller.
//
// The columnar simulation engine advances each terminal by whole
// event-free stretches, so the question it asks the RNG is not "does an
// event happen this slot?" but "how many slots until the next event?".
// A textbook geometric sampler would answer with one uniform draw and a
// logarithm — and destroy the positional-stream contract the sharded
// simulator is built on: every engine must consume the exact same draw
// at the exact same stream position so that results are bit-identical
// across engines and shard counts (see stats.SubStream and
// sim.TestFastPathEquivalence).
//
// EventGap therefore samples the geometric gap by running the per-slot
// threshold scan itself — one call-draw/move-draw pair per slot, in the
// caller's exact draw order — and returning how far the scan got.
// Equivalence with the scalar loop is by construction, not
// approximation: the loop body is the scalar engine's per-slot draws
// verbatim, so the generator state after a gap-sampled stretch equals
// the state after the same stretch of scalar draws, position for
// position (property-tested and fuzzed in gap_test.go).
//
// What the restructuring buys is the inner loop. The scan copies the
// four xoshiro256** words into locals, advances them with the inlined
// step function and writes them back once on exit, so the whole stretch
// runs with the generator state in registers; a Uint64 call per draw
// would load and store all four words through the pointer every slot.
// `go build -gcflags=-m ./internal/stats` checks it: it must report
// "inlining call to step" at both draws in EventGap.

// EventGap scans for the next slot in which either of two ordered
// Bernoulli events fires: each slot draws against first, and only on a
// failure draws against second — the call-then-move draw order of the
// simulator's slot sweep (sim.network.sweepSlot). The thresholds are
// BernoulliT thresholds (see BernoulliThreshold). It returns the number
// of event-free slots consumed before the hit and which event fired
// (firstHit). When neither fires within limit slots it returns
// (limit, false, false) with exactly 2·limit draws consumed; a limit of
// zero or less consumes nothing.
//
// An event slot consumes only the draws up to its deciding one — one
// draw when first fires, two when second fires — leaving the generator
// positioned exactly where the scalar loop's event handling would pick
// it up (the direction draw of a move, the loss draws of a paging
// chain).
func (r *RNG) EventGap(first, second uint64, limit int64) (gap int64, firstHit, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var u uint64
	for ; gap < limit; gap++ {
		if u, s0, s1, s2, s3 = step(s0, s1, s2, s3); u>>11 < first {
			firstHit, hit = true, true
			break
		}
		if u, s0, s1, s2, s3 = step(s0, s1, s2, s3); u>>11 < second {
			hit = true
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if !hit {
		return limit, false, false
	}
	return gap, firstHit, hit
}
