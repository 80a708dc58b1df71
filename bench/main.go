// Command bench is the end-to-end and per-layer benchmark of the job
// service: it drives the real jobs.Manager + internal/server stack (and
// internal/cluster) in-process over loopback HTTP, the way
// pcnctl submit -wait does, checks every result byte-for-byte against
// the library's report, and prints each metric with its unit and sample
// count. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	go run ./bench -seed 1                      # every workload, each in its own process
//	go run ./bench -workload service -seed 1    # one workload
//	go run ./bench -workload cluster -trace 1   # per-layer metrics and bench/out/cluster.trace.json
//	go run ./bench -compare parentDir changeDir # paired runs of two checkouts
//
// bench/README.md describes the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// boolArg is a boolean flag that takes its value as a separate argument
// ("-trace 1"), as the benchmark harness passes it.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// settings are the parsed command line.
type settings struct {
	workload string
	seed     uint64
	seconds  int
	trace    boolArg
	out      string
	compare  bool
	args     []string // positional: parentDir changeDir with -compare
}

func parseSettings(args []string, stderr io.Writer) (*settings, error) {
	s := &settings{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&s.workload, "workload", "", "workload to run (bulk, service, cluster, durable); empty runs all, each in its own process")
	fs.Uint64Var(&s.seed, "seed", 1, "seed every job spec derives from")
	fs.IntVar(&s.seconds, "seconds", 25, "length of the measured phase in seconds")
	fs.Var(&s.trace, "trace", "1 adds the traced replay and reports per-layer metrics instead of end-to-end ones")
	fs.StringVar(&s.out, "out", "bench/out", "directory for trace files and scratch data")
	fs.BoolVar(&s.compare, "compare", false, "compare two checkouts given as arguments: parentDir changeDir")
	if err := fs.Parse(args); err != nil {
		return nil, err // the flag set has printed it
	}
	s.args = fs.Args()
	return s, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	s, err := parseSettings(args, stderr)
	if err != nil {
		return 2
	}
	if s.seconds < 0 {
		fmt.Fprintf(stderr, "bench: -seconds must not be negative, got %d\n", s.seconds)
		return 2
	}
	box := time.Duration(s.seconds) * time.Second
	if s.compare {
		if len(s.args) != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes parentDir changeDir")
			return 2
		}
		names := workloadNames()
		if s.workload != "" {
			names = []string{s.workload}
		}
		if err := compareCheckouts(s.args[0], s.args[1], names, s.seconds, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: compare: %v\n", err)
			return 1
		}
		return 0
	}
	if len(s.args) != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", s.args)
		return 2
	}
	if s.workload == "" {
		return runAll(args, stdout, stderr)
	}
	w, err := workloadByName(s.workload)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	// Every run ends well inside the harness's three-minute limit, even
	// when something hangs: operations then fail on this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), box+150*time.Second)
	defer cancel()
	o := options{seed: s.seed, box: box, trace: bool(s.trace), scale: 1, out: s.out}
	res, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	report(stdout, stderr, w.name, res, o.trace)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// report prints the human-readable lines, then the result object as the
// last line.
func report(stdout, stderr io.Writer, workload string, res *outcome, trace bool) {
	names := make([]string, 0, len(res.info))
	for n := range res.info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.info[n]
		fmt.Fprintf(stdout, "%-8s %-34s %14.6g %-6s n=%d\n", workload, n, v.Value, v.Unit, v.Samples)
	}
	if trace {
		job := res.info["job_s_p50"].Value * 1e3
		fmt.Fprintf(stdout, "%-8s rollup: layer self time per job (* = on the job's path; share of job_s_p50)\n", workload)
		for _, row := range res.rollup {
			mark := " "
			if res.onPath[row.Layer] {
				mark = "*"
			}
			fmt.Fprintf(stdout, "%-8s %s %-20s %12.4f ms %6.1f%%  calls=%d jobs=%d\n",
				workload, mark, row.Layer, row.SelfMsPerJob, 100*row.SelfMsPerJob/job, row.Calls, row.Jobs)
		}
	}
	for i, f := range res.failures {
		if i == 10 {
			fmt.Fprintf(stderr, "bench: %s: … %d more failures\n", workload, len(res.failures)-i)
			break
		}
		fmt.Fprintf(stderr, "bench: %s: failed: %s\n", workload, f)
	}
	line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
	fmt.Fprintln(stdout, string(line))
}

// runAll runs every workload in its own process, so setup_s and
// peak_rss_mb belong to one workload, and ends with one combined object
// whose metric names carry the workload as a prefix.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	total := outcome{Correct: true, Metrics: make(map[string]value)}
	for _, w := range workloads {
		cmd := exec.Command(exe, childArgs(args, w.name)...)
		cmd.Stderr = stderr
		// A run with failed operations exits 1 but still ends with its
		// result line.
		last, err := relay(cmd, stdout)
		var res outcome
		if jerr := json.Unmarshal([]byte(last), &res); jerr == nil {
			err = nil
		} else if err == nil {
			err = jerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, v := range res.Metrics {
			total.Metrics[w.name+"."+n] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// childArgs are the arguments of runAll's child for one workload. The
// workload comes last, so it overrides any -workload the caller passed,
// an empty one included, and the child never runs all again.
func childArgs(args []string, workload string) []string {
	return append(append([]string{}, args...), "-workload", workload)
}

// relay runs cmd, copies its standard output through and returns the
// last line.
func relay(cmd *exec.Cmd, stdout io.Writer) (string, error) {
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	_, _ = io.Copy(io.Discard, pipe) // after a scan error, let the child finish writing
	if err := cmd.Wait(); err != nil {
		return last, err
	}
	if scanErr != nil {
		return last, scanErr
	}
	if !strings.HasPrefix(last, "{") {
		return last, errors.New("no result line")
	}
	return last, nil
}
