// Command pcnsim runs the discrete-event PCN system simulator — terminals,
// HLR, binary signalling messages, polling cycles — and compares the
// measured per-slot costs with the paper's analytical prediction:
//
//	pcnsim -model 2d -q 0.05 -c 0.01 -U 100 -V 10 -m 3 -terminals 50 -slots 200000
//	pcnsim -dynamic -hetero   # per-terminal online estimation demo
//	pcnsim -dynamic -reoptimize-every 500   # re-optimization period
//	pcnsim -partition blanket                # paging partitioner
//	pcnsim -terminals 100000 -slots 1000 -shards 8   # sharded parallel engine
//	pcnsim -scheme timer -scheme-param 500      # timer-based updates
//	pcnsim -scheme movement -scheme-param 6     # movement-based updates
//	pcnsim -scenario rush-hour-hotspot          # registered named scenario
//	pcnsim -scenarios                           # list the registry
//	pcnsim -loss 0.2 -poll-loss 0.1 -reply-loss 0.1 -update-retries 3 \
//	       -outage 50000:60000   # fault injection + recovery subsystem
//	pcnsim -telemetry-every 10000 -json   # machine-readable run report
//	pcnsim -pprof localhost:6060          # live progress + profiling
//
// The run flags are jobs.SpecFlags, the set `pcnctl submit` registers
// too: a flag line builds the same jobs.Spec in both commands, and pcnsim
// runs it through Spec.NetworkConfig — the mapping the job service uses —
// so `pcnsim ... -json` prints the bytes `pcnctl submit ... -wait` does.
// pcnsim adds only -json, -pprof and -scenarios.
//
// A -scenario fixes the model half of the run (grid, probabilities,
// costs, delay bound, partition, update scheme, fleet, faults) from the
// shared locman registry — the same names pcnctl and the job service
// resolve — while the run shape (-terminals, -slots, -seed, -shards,
// -engine, -telemetry-every, -d) stays with the flags; model flags set
// alongside it are rejected rather than silently overridden.
//
// The population is partitioned across -shards parallel simulation engines
// (default GOMAXPROCS); metrics are bit-identical for any shard count.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"sort"

	"repro/internal/jobs"
	"repro/locman"
)

// percent formats part as a percentage of whole, tolerating a zero whole.
func percent(part, whole int64) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

// printReport writes the human-readable run summary. Lost updates are
// reported against update transmission attempts (first sends and
// retransmissions alike — the same population the loss probability
// applies to), so the percentage is a direct estimate of the injected
// loss rate and can never exceed 100%.
func printReport(w io.Writer, r *locman.Report) {
	fmt.Fprintf(w, "terminals        %d\n", r.Terminals)
	fmt.Fprintf(w, "slots            %d (%d scheduler events)\n", r.Slots, r.Events)
	fmt.Fprintf(w, "updates          %d (%d bytes)\n", r.Updates, r.UpdateBytes)
	fmt.Fprintf(w, "calls            %d (replies: %d bytes)\n", r.Calls, r.ReplyBytes)
	fmt.Fprintf(w, "polled cells     %d (%d bytes)\n", r.PolledCells, r.PollBytes)
	fmt.Fprintf(w, "paging failures  %d\n", r.NotFound)
	fmt.Fprintf(w, "lost updates     %d (%s of %d attempts)\n", r.LostUpdates,
		percent(r.LostUpdates, r.Updates), r.Updates)
	fmt.Fprintf(w, "lost polls       %d   lost replies %d\n", r.LostPolls, r.LostReplies)
	fmt.Fprintf(w, "retransmissions  %d (acks: %d, %d bytes)\n",
		r.Retransmissions, r.Acks, r.AckBytes)
	fmt.Fprintf(w, "fallback pages   %d (%s of calls)   re-poll rounds %d\n",
		r.FallbackCalls, percent(r.FallbackCalls, r.Calls), r.RePolls)
	fmt.Fprintf(w, "dropped calls    %d (%s of calls)\n", r.DroppedCalls,
		percent(r.DroppedCalls, r.Calls))
	fmt.Fprintf(w, "outage deferred  %d registrations\n", r.OutageDeferred)
	if r.Recovery.N > 0 {
		fmt.Fprintf(w, "recovery latency %.2f slots mean, %.0f worst (%d episodes)\n",
			r.Recovery.Mean, r.Recovery.Max, r.Recovery.N)
	}
	if h := r.RecoveryHist; h != nil && h.N > 0 {
		fmt.Fprintf(w, "recovery tail    p50 %.0f  p95 %.0f  p99 %.0f slots\n", h.P50, h.P95, h.P99)
	}
	fmt.Fprintf(w, "mean delay       %.3f polling cycles (worst observed %.0f)\n",
		r.Delay.Mean, r.Delay.Max)
	if h := r.DelayHist; h != nil && h.N > 0 {
		fmt.Fprintf(w, "delay tail       p50 %.0f  p95 %.0f  p99 %.0f cycles\n", h.P50, h.P95, h.P99)
	}
	fmt.Fprintf(w, "update cost      %.6f per slot per terminal\n", r.UpdateCost)
	fmt.Fprintf(w, "paging cost      %.6f per slot per terminal\n", r.PagingCost)
	fmt.Fprintf(w, "total cost       %.6f per slot per terminal\n", r.TotalCost)

	// Threshold usage histogram; omitted entirely when nothing was
	// recorded rather than printing a bare label.
	if len(r.ThresholdSlots) > 0 {
		ds := make([]int, 0, len(r.ThresholdSlots))
		for d := range r.ThresholdSlots {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		fmt.Fprintf(w, "threshold usage ")
		for _, d := range ds {
			fmt.Fprintf(w, "  d=%d: %.1f%%", d,
				100*float64(r.ThresholdSlots[d])/(float64(r.Slots)*float64(r.Terminals)))
		}
		fmt.Fprintln(w)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnsim: ")
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point: it registers the shared run flags and
// pcnsim's own output flags on fs, parses args, runs the simulation and
// writes the report to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	specOf := jobs.SpecFlags(fs)
	jsonOut := fs.Bool("json", false,
		"emit the run report as a schema-stable JSON document instead of text")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof and expvar live shard progress on this address")
	listScenarios := fs.Bool("scenarios", false,
		"list the registered scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listScenarios {
		for _, sc := range locman.Scenarios() {
			fmt.Fprintf(stdout, "%-18s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	spec, err := specOf()
	if err != nil {
		return err
	}
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		prog := &locman.Progress{}
		cfg.Progress = prog
		expvar.Publish("pcnsim.progress", expvar.Func(func() any {
			return prog.Snapshot()
		}))
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		log.Printf("serving pprof and expvar on http://%s", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				log.Print(err)
			}
		}()
	}

	metrics, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		return err
	}
	report := locman.NewReport(metrics)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	printReport(stdout, report)

	// Analytical comparison for the homogeneous static distance case; the
	// paper's cost model prices neither heterogeneous populations nor the
	// timer/movement triggers, and scenarios may carry any of those.
	if spec.Dynamic || spec.Fleet != nil || spec.Scenario != "" ||
		(cfg.Scheme != nil && cfg.Scheme.Name() != "distance") {
		return nil
	}
	d := cfg.Threshold
	if d < 0 {
		res, err := locman.Optimize(cfg.Config)
		if err != nil {
			return err
		}
		d = res.Best.Threshold
	}
	want, err := locman.Evaluate(cfg.Config, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nanalytical C_T(d=%d) = %.6f  (simulated %.6f, rel. diff %+.2f%%)\n",
		d, want.Total, metrics.TotalCost, 100*(metrics.TotalCost-want.Total)/want.Total)
	fmt.Fprintf(stdout, "analytical E[delay]  = %.3f  (simulated %.3f)\n",
		want.ExpectedDelay, metrics.Delay.Mean())
	return nil
}
