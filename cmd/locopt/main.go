// Command locopt computes the optimal location-update threshold distance
// for a mobile terminal under the delay-constrained paging mechanism:
//
//	locopt -model 2d -q 0.05 -c 0.01 -U 100 -V 10 -m 3
//
// It prints the optimal threshold d*, the cost breakdown, the expected
// paging delay, and optionally the whole cost curve (-curve). The
// optimization method is selectable: exhaustive scan (default), the
// paper's simulated annealing (-method anneal) or the cheap near-optimal
// closed-form pipeline (-method near).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/svgplot"
	"repro/locman"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("locopt: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is main minus the process scaffolding, so tests can drive the full
// flag-to-output path in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("locopt", flag.ContinueOnError)
	model := fs.String("model", "2d", "mobility model: 1d, 2d or 2d-approx")
	q := fs.Float64("q", 0.05, "per-slot movement probability")
	c := fs.Float64("c", 0.01, "per-slot call-arrival probability")
	u := fs.Float64("U", 100, "location-update cost")
	v := fs.Float64("V", 10, "per-cell polling cost")
	m := fs.Int("m", 0, "maximum paging delay in polling cycles (0 = unbounded)")
	maxD := fs.Int("maxd", 0, "scan bound for the threshold (0 = default 200)")
	schemeName := fs.String("scheme", "sdf",
		"paging partition: "+strings.Join(locman.PartitionNames(), ", "))
	method := fs.String("method", "scan", "optimizer: scan, anneal, near, grouped or mean-delay")
	meanDelay := fs.Float64("mean-delay", 1.5, "expected-delay budget in cycles for -method mean-delay")
	seed := fs.Int64("seed", 1, "random seed for -method anneal")
	curve := fs.Bool("curve", false, "print the full cost curve C_T(d)")
	mapOut := fs.String("map", "", "write an SVG map of the optimal residing-area paging plan (2-D models)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var mdl locman.Model
	switch *model {
	case "1d":
		mdl = locman.OneDimensional
	case "2d":
		mdl = locman.TwoDimensional
	case "2d-approx":
		mdl = locman.TwoDimensionalApprox
	default:
		return fmt.Errorf("unknown model %q (want 1d, 2d or 2d-approx)", *model)
	}
	scheme, err := locman.PartitionByName(*schemeName)
	if err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}
	if *method == "grouped" {
		// The grouped method prices the probability-ordered plan, which
		// no -scheme name selects.
		scheme = locman.ProbOrder()
	}
	cfg := locman.Config{
		Model:        mdl,
		MoveProb:     *q,
		CallProb:     *c,
		UpdateCost:   *u,
		PollCost:     *v,
		MaxDelay:     *m,
		MaxThreshold: *maxD,
		Partition:    scheme,
	}

	var res locman.Result
	switch *method {
	case "scan", "grouped":
		res, err = locman.Optimize(cfg)
	case "anneal":
		res, err = locman.OptimizeAnneal(cfg, locman.AnnealOptions{Seed: *seed})
	case "near":
		res, err = locman.NearOptimal(cfg, true)
	case "mean-delay":
		res, err = locman.OptimizeMeanDelay(cfg, *meanDelay)
	default:
		return fmt.Errorf("unknown method %q (want scan, anneal, near, grouped or mean-delay)", *method)
	}
	if err != nil {
		return err
	}

	b := res.Best
	fmt.Fprintf(stdout, "model           %s\n", *model)
	fmt.Fprintf(stdout, "q, c            %g, %g\n", *q, *c)
	fmt.Fprintf(stdout, "U, V            %g, %g\n", *u, *v)
	if *m == 0 {
		fmt.Fprintf(stdout, "max delay       unbounded\n")
	} else {
		fmt.Fprintf(stdout, "max delay       %d polling cycles\n", *m)
	}
	fmt.Fprintf(stdout, "partition       %s\n", scheme.Name())
	fmt.Fprintf(stdout, "optimal d*      %d\n", b.Threshold)
	fmt.Fprintf(stdout, "update cost     %.6f per slot\n", b.Update)
	fmt.Fprintf(stdout, "paging cost     %.6f per slot\n", b.Paging)
	fmt.Fprintf(stdout, "total cost      %.6f per slot\n", b.Total)
	fmt.Fprintf(stdout, "expected delay  %.3f cycles (worst case %d)\n", b.ExpectedDelay, b.MaxCycles)
	fmt.Fprintf(stdout, "evaluations     %d\n", res.Evaluations)

	if *curve && res.Curve != nil {
		fmt.Fprintln(stdout, "\nd  C_T(d)")
		for d, v := range res.Curve {
			marker := ""
			if d == b.Threshold {
				marker = "  <-- d*"
			}
			fmt.Fprintf(stdout, "%-3d%.6f%s\n", d, v, marker)
		}
	}

	if *mapOut != "" {
		if mdl == locman.OneDimensional {
			return fmt.Errorf("-map requires a 2-D model")
		}
		mcfg := cfg
		mcfg.MaxDelay = b.MaxCycles // the plan actually chosen
		rc, err := locman.RingCycles(mcfg, b.Threshold)
		if err != nil {
			return err
		}
		f, err := os.Create(*mapOut)
		if err != nil {
			return err
		}
		defer f.Close()
		title := fmt.Sprintf("residing area d=%d, %d polling cycles (%s)", b.Threshold, b.MaxCycles, scheme.Name())
		if err := svgplot.HexMap(f, title, b.Threshold, rc); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\npaging plan map written to %s\n", *mapOut)
	}
	return nil
}
