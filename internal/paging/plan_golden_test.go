package paging_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/paging"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans.golden")

// planRow is one paging plan as the golden records it: the polling cycle
// of each ring, the cells polled per cycle, and the plan's expected cells
// and expected delay under the stationary ring probabilities.
type planRow struct {
	ringCycle []int
	cells     []int
	expCells  float64
	expDelay  float64
}

// goldenModels and goldenParams span the three chains and three (q, c)
// regimes: a fast mover with rare calls, the paper's Table point, and a
// busy terminal.
var (
	goldenModels = []chain.Model{chain.OneDim, chain.TwoDimExact, chain.TwoDimApprox}
	goldenParams = []chain.Params{{Q: 0.3, C: 0.001}, {Q: 0.05, C: 0.01}, {Q: 0.5, C: 0.1}}
)

// modelTag names a model in the fixture, as locopt's -model flag does.
func modelTag(m chain.Model) string {
	return [...]string{chain.OneDim: "1d", chain.TwoDimExact: "2d", chain.TwoDimApprox: "2d-approx"}[m]
}

// sawtooth returns ring probabilities whose per-cell mass rises and falls
// with distance, 1 + (5i+2) mod 7 in ring i. The chains' stationary
// per-cell mass falls monotonically with distance, so their
// probability-ordered plans keep distance order; this distribution
// drives the plans that group rings out of order.
func sawtooth(rings []int) []float64 {
	pi := make([]float64, len(rings))
	sum := 0.0
	for i, n := range rings {
		pi[i] = float64(n * (1 + (5*i+2)%7))
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

const goldenMaxD = 13

// TestPlanGolden pins every paging plan — each registered scheme and the
// probability-ordered plan, over all three chains at three (q, c) points
// and the sawtooth distribution on both grids, d = 0..13 and m = 0..3 —
// and the cost breakdowns of the
// probability-ordered and optimal-dp evaluate paths, to the committed
// fixture bit for bit. Regenerate with
// `go test ./internal/paging -run TestPlanGolden -update` — but only when
// a change is supposed to alter a plan or its arithmetic.
func TestPlanGolden(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# model q c d m scheme ring-cycles cells-per-cycle expected-cells-bits expected-delay-bits\n")
	outOfOrder := 0
	plans := func(source string, rings []int, pi []float64, d int) {
		for m := 0; m <= 3; m++ {
			prefix := fmt.Sprintf("%s %d %d", source, d, m)
			for _, name := range paging.Names() {
				s, err := paging.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				writePlanRow(&buf, prefix, name, partitionRow(s.Partition(rings, pi, m), pi))
			}
			row := probOrderRow(rings, pi, m)
			writePlanRow(&buf, prefix, "prob-order", row)
			for r := 1; r < len(row.ringCycle); r++ {
				if row.ringCycle[r] < row.ringCycle[r-1] {
					outOfOrder++
					break
				}
			}
		}
	}
	for _, model := range goldenModels {
		for _, p := range goldenParams {
			for d := 0; d <= goldenMaxD; d++ {
				pi, err := chain.Stationary(model, p, d)
				if err != nil {
					t.Fatal(err)
				}
				plans(fmt.Sprintf("%s %g %g", modelTag(model), p.Q, p.C), model.Grid().RingSizes(d), pi, d)
			}
		}
	}
	for _, model := range []chain.Model{chain.OneDim, chain.TwoDimExact} {
		for d := 0; d <= goldenMaxD; d++ {
			rings := model.Grid().RingSizes(d)
			plans(modelTag(model)+" sawtooth -", rings, sawtooth(rings), d)
		}
	}
	if outOfOrder == 0 {
		t.Error("no probability-ordered plan leaves distance order; the grid does not cover non-contiguous plans")
	}

	buf.WriteString("# model q c d m path threshold update paging total expected-delay max-cycles (float64 bits)\n")
	for _, model := range goldenModels {
		for _, p := range goldenParams {
			for _, d := range []int{0, 3, 7, goldenMaxD} {
				for m := 0; m <= 3; m++ {
					cfg := core.Config{
						Model:    model,
						Params:   p,
						Costs:    core.Costs{Update: 100, Poll: 10},
						MaxDelay: m,
					}
					grouped, err := groupedBreakdown(cfg, d)
					if err != nil {
						t.Fatal(err)
					}
					writeBreakdown(&buf, model, p, d, m, "prob-order", grouped)
					cfg.Scheme = paging.OptimalDP{}
					dp, err := cfg.Evaluate(d)
					if err != nil {
						t.Fatal(err)
					}
					writeBreakdown(&buf, model, p, d, m, "optimal-dp", dp)
				}
			}
		}
	}

	path := filepath.Join("testdata", "plans.golden")
	got := buf.Bytes()
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d diverged:\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}

func writePlanRow(buf *bytes.Buffer, prefix, name string, row planRow) {
	fmt.Fprintf(buf, "%s %s %s %s %016x %016x\n", prefix, name,
		joinInts(row.ringCycle), joinInts(row.cells),
		math.Float64bits(row.expCells), math.Float64bits(row.expDelay))
}

func writeBreakdown(buf *bytes.Buffer, model chain.Model, p chain.Params, d, m int, path string, b core.Breakdown) {
	fmt.Fprintf(buf, "%s %g %g %d %d %s %d %016x %016x %016x %016x %d\n", modelTag(model), p.Q, p.C, d, m, path,
		b.Threshold, math.Float64bits(b.Update), math.Float64bits(b.Paging),
		math.Float64bits(b.Total), math.Float64bits(b.ExpectedDelay), b.MaxCycles)
}

func joinInts(xs []int) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, ",")
}
