// Citywide: per-user location management in a 2-D metropolitan PCN.
//
// The paper's conclusions note that its results can drive "dynamic schemes
// such that [the] location update threshold distance is determined
// continuously on a per-user basis". This example shows why that matters:
// a city mixes user profiles whose optimal thresholds differ widely, and a
// single network-wide threshold overpays for everyone. It then runs the
// discrete-event PCN simulator with online per-terminal estimation and
// shows the dynamic scheme approaching the per-profile optimum without
// knowing the profiles a priori.
//
//	go run ./examples/citywide
package main

import (
	"fmt"
	"log"

	"repro/locman"
)

type profile struct {
	name     string
	moveProb float64
	callProb float64
}

var profiles = []profile{
	{"office worker (mostly parked)", 0.01, 0.02},
	{"pedestrian", 0.05, 0.01},
	{"courier (always moving)", 0.30, 0.01},
	{"taxi (moving, chatty)", 0.25, 0.05},
}

func main() {
	log.SetFlags(0)

	base := locman.Config{
		Model:      locman.TwoDimensional,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   2,
	}

	// Per-profile optima.
	fmt.Println("profile                          d*   C_T     E[delay]")
	var avgQ, avgC float64
	for _, p := range profiles {
		cfg := base
		cfg.MoveProb, cfg.CallProb = p.moveProb, p.callProb
		res, err := locman.Optimize(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %-4d %-7.3f %.2f\n",
			p.name, res.Best.Threshold, res.Best.Total, res.Best.ExpectedDelay)
		avgQ += p.moveProb / float64(len(profiles))
		avgC += p.callProb / float64(len(profiles))
	}

	// What a one-size-fits-all network threshold costs: pick the optimum
	// for the average user and price every profile at it.
	avgCfg := base
	avgCfg.MoveProb, avgCfg.CallProb = avgQ, avgC
	avgRes, err := locman.Optimize(avgCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnetwork-wide threshold from average user (q=%.3f, c=%.3f): d = %d\n",
		avgQ, avgC, avgRes.Best.Threshold)
	var lossTotal float64
	for _, p := range profiles {
		cfg := base
		cfg.MoveProb, cfg.CallProb = p.moveProb, p.callProb
		own, err := locman.Optimize(cfg)
		if err != nil {
			log.Fatal(err)
		}
		forced, err := locman.Evaluate(cfg, avgRes.Best.Threshold)
		if err != nil {
			log.Fatal(err)
		}
		loss := 100 * (forced.Total - own.Best.Total) / own.Best.Total
		lossTotal += loss
		fmt.Printf("  %-32s pays %.3f instead of %.3f (+%.1f%%)\n",
			p.name, forced.Total, own.Best.Total, loss)
	}
	fmt.Printf("average overpayment: %.1f%%\n", lossTotal/float64(len(profiles)))

	// The dynamic per-user scheme, end to end: the simulated network does
	// not know who is who; each terminal estimates its own (q, c) and
	// re-optimizes periodically using the near-optimal closed form.
	fmt.Println("\nrunning the PCN simulator with per-terminal dynamic thresholds...")
	fleet := &locman.Fleet{}
	for _, p := range profiles {
		fleet.Groups = append(fleet.Groups, locman.FleetGroup{MoveProb: p.moveProb, CallProb: p.callProb})
	}
	cfg := locman.NetworkConfig{
		Config:    avgCfg,
		Terminals: len(profiles) * 4,
		Threshold: avgRes.Best.Threshold,
		Dynamic:   true,
		Fleet:     fleet,
		Seed:      7,
	}
	metrics, err := locman.SimulateNetwork(cfg, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic: total cost %.3f per slot per terminal, mean delay %.2f cycles, %d paging failures\n",
		metrics.TotalCost, metrics.Delay.Mean(), metrics.NotFound)

	// Per-profile realized costs and where each terminal's threshold
	// converged — the per-user adaptation at work.
	for pi, p := range profiles {
		var cost float64
		var n int
		finals := map[int]int{}
		for ti, ts := range metrics.PerTerminal {
			if ti%len(profiles) != pi {
				continue
			}
			cost += ts.TotalCost
			finals[ts.FinalThreshold]++
			n++
		}
		fmt.Printf("  %-32s realized %.3f/slot, final thresholds %v\n",
			p.name, cost/float64(n), finals)
	}

	static := cfg
	static.Dynamic = false
	staticMetrics, err := locman.SimulateNetwork(static, 150_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("static network-wide d=%d: total cost %.3f per slot per terminal\n",
		avgRes.Best.Threshold, staticMetrics.TotalCost)
	fmt.Printf("dynamic saves %.1f%% over the static network-wide threshold\n",
		100*(staticMetrics.TotalCost-metrics.TotalCost)/staticMetrics.TotalCost)
}
