// Quickstart: find the optimal location-update threshold for a typical
// 2-D PCN terminal and inspect the cost trade-off.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/locman"
)

func main() {
	log.SetFlags(0)

	// A pedestrian terminal: moves to a neighboring cell in 5% of time
	// slots, receives a call in 1% of them. Updating the network costs
	// 100 units; polling one cell costs 10. The network must locate the
	// terminal within 3 polling cycles.
	cfg := locman.Config{
		Model:      locman.TwoDimensional,
		MoveProb:   0.05,
		CallProb:   0.01,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   3,
	}

	res, err := locman.Optimize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal threshold d* = %d\n", res.Best.Threshold)
	fmt.Printf("total cost           = %.3f per slot (update %.3f + paging %.3f)\n",
		res.Best.Total, res.Best.Update, res.Best.Paging)
	fmt.Printf("expected paging delay = %.2f cycles (bound %d)\n\n",
		res.Best.ExpectedDelay, res.Best.MaxCycles)

	// The trade-off the mechanism optimizes: small thresholds update too
	// often, large ones page too much.
	fmt.Println("d    C_T(d)")
	for d := 0; d <= 6; d++ {
		b, err := locman.Evaluate(cfg, d)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if d == res.Best.Threshold {
			marker = "   <-- optimal"
		}
		fmt.Printf("%-4d %.3f%s\n", d, b.Total, marker)
	}

	// Validate the analysis against a simulated terminal walking the real
	// hexagonal grid and signalling the network.
	simres, err := locman.SimulateNetwork(locman.NetworkConfig{
		Config:    cfg,
		Threshold: res.Best.Threshold,
		Seed:      42,
	}, 1_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated cost over 1M slots = %.3f (analysis %.3f)\n",
		simres.TotalCost, res.Best.Total)
}
