package locman

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// momentSums reads n, Σx and Σx² from the documented binary form of
// stats.Moments (unit, n, Σx, Σx² high and low words, min, max).
func momentSums(t *testing.T, m stats.Moments) (n, sum, sq *big.Int) {
	t.Helper()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[8*i:]) }
	sq = new(big.Int).SetUint64(word(3))
	sq.Lsh(sq, 64).Or(sq, new(big.Int).SetUint64(word(4)))
	return big.NewInt(int64(word(1))), big.NewInt(int64(word(2))), sq
}

// sampleLog rebuilds raw samples from successive states of moments that
// gain at most two samples between observations: one sample is the
// change in Σx, two are the roots fixed by the changes in Σx and Σx².
type sampleLog struct {
	n, sum, sq *big.Int
	samples    []int64
}

func newSampleLog() *sampleLog {
	return &sampleLog{n: new(big.Int), sum: new(big.Int), sq: new(big.Int)}
}

// observe records the samples between the last state and m.
func (l *sampleLog) observe(t *testing.T, m stats.Moments) {
	t.Helper()
	n, sum, sq := momentSums(t, m)
	dn := new(big.Int).Sub(n, l.n).Int64()
	ds := new(big.Int).Sub(sum, l.sum)
	dq := new(big.Int).Sub(sq, l.sq)
	l.n, l.sum, l.sq = n, sum, sq
	var xs []*big.Int
	switch dn {
	case 0:
	case 1:
		xs = []*big.Int{ds}
	case 2:
		// x1 + x2 = ds and x1² + x2² = dq: x = (ds ± √(2dq − ds²)) / 2.
		disc := new(big.Int).Sub(new(big.Int).Lsh(dq, 1), new(big.Int).Mul(ds, ds))
		r := new(big.Int).Sqrt(disc)
		lo, hi := new(big.Int).Sub(ds, r), new(big.Int).Add(ds, r)
		xs = []*big.Int{lo.Rsh(lo, 1), hi.Rsh(hi, 1)}
	default:
		t.Fatalf("%d samples between observations", dn)
	}
	gotSum, gotSq := new(big.Int), new(big.Int)
	for _, x := range xs {
		gotSum.Add(gotSum, x)
		gotSq.Add(gotSq, new(big.Int).Mul(x, x))
		l.samples = append(l.samples, x.Int64())
	}
	if gotSum.Cmp(ds) != 0 || gotSq.Cmp(dq) != 0 {
		t.Fatalf("change (n %d, Σx %v, Σx² %v) is not a set of integer samples", dn, ds, dq)
	}
}

// checkRounded holds a report Summary's mean and stddev to the float64s
// nearest the exact mean and sample standard deviation of xs/unit,
// computed with math/big.Rat by the two-pass formula.
func checkRounded(t *testing.T, what string, got Summary, xs []int64, unit int64) {
	t.Helper()
	if got.N != int64(len(xs)) || len(xs) < 2 {
		t.Fatalf("%s: summary of %d samples, rebuilt %d", what, got.N, len(xs))
	}
	mean := new(big.Rat)
	for _, x := range xs {
		mean.Add(mean, big.NewRat(x, unit))
	}
	mean.Quo(mean, big.NewRat(int64(len(xs)), 1))
	if want, _ := mean.Float64(); got.Mean != want {
		t.Errorf("%s mean %v, want the correctly rounded %v", what, got.Mean, want)
	}
	v := new(big.Rat)
	for _, x := range xs {
		d := big.NewRat(x, unit)
		d.Sub(d, mean)
		v.Add(v, d.Mul(d, d))
	}
	v.Quo(v, big.NewRat(int64(len(xs)-1), 1))
	// got.StdDev is correctly rounded iff v lies between the squares of
	// the midpoints to its two float64 neighbours.
	mid := func(a, b float64) *big.Rat {
		m := new(big.Rat).SetFloat64(a)
		m.Add(m, new(big.Rat).SetFloat64(b))
		m.Quo(m, big.NewRat(2, 1))
		return m.Mul(m, m)
	}
	y := got.StdDev
	if mid(math.Nextafter(y, 0), y).Cmp(v) > 0 || v.Cmp(mid(y, math.Nextafter(y, math.Inf(1)))) > 0 {
		t.Errorf("%s stddev %v is not the float64 nearest √%s", what, y, v.FloatString(30))
	}
}

// TestReportMomentsCorrectlyRounded recomputes the report's delay and
// recovery mean and stddev from the run's raw samples. One terminal per
// shard and a checkpoint after every slot expose each shard's moments
// often enough that every change between two checkpoints is at most two
// samples, which the changes in Σx and Σx² pin exactly; the rebuilt
// samples are cross-checked against the latency histograms, which count
// the same samples independently.
func TestReportMomentsCorrectlyRounded(t *testing.T) {
	cfg := reportConfig()
	const slots = 2_000
	shards := cfg.Terminals
	delays, recoveries := make([]*sampleLog, shards), make([]*sampleLog, shards)
	for s := range delays {
		delays[s], recoveries[s] = newSampleLog(), newSampleLog()
	}
	m, err := SimulateNetworkCheckpointed(context.Background(), cfg, slots, shards, 1, func(cp *Checkpoint) {
		// A delivered checkpoint carries encoded sections; its fields
		// are read from a decode.
		data, _ := EncodeCheckpoint(cp)
		decoded, err := DecodeCheckpoint(data)
		if err != nil {
			t.Error(err)
			return
		}
		for s, sc := range decoded.Shard {
			delays[s].observe(t, sc.Metrics.Delay)
			recoveries[s].observe(t, sc.Metrics.Recovery)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last slot's samples (and any drained after it) are the final
	// totals less every shard's last checkpoint.
	tail := func(logs []*sampleLog, final stats.Moments) []int64 {
		t.Helper()
		rest := newSampleLog()
		var xs []int64
		for _, l := range logs {
			rest.n.Add(rest.n, l.n)
			rest.sum.Add(rest.sum, l.sum)
			rest.sq.Add(rest.sq, l.sq)
			xs = append(xs, l.samples...)
		}
		rest.observe(t, final)
		return append(xs, rest.samples...)
	}
	delay, recovery := tail(delays, m.Delay), tail(recoveries, m.Recovery)

	hist := func(what string, h *Hist, xs []int64, scale float64) {
		t.Helper()
		counts := make([]int64, len(h.Counts))
		for _, x := range xs {
			counts[int(float64(x)/scale/h.Width)]++
		}
		for i := range counts {
			if counts[i] != h.Counts[i] {
				t.Fatalf("%s bucket %d: rebuilt samples count %d, histogram %d", what, i, counts[i], h.Counts[i])
			}
		}
	}
	hist("delay", m.DelayHist, delay, 1)
	hist("recovery", m.RecoveryHist, recovery, sim.SlotTicks)

	data, err := json.Marshal(NewReport(m))
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	checkRounded(t, "delay", r.Delay, delay, 1)
	checkRounded(t, "recovery", r.Recovery, recovery, sim.SlotTicks)
}
