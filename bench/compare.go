package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict is the comparison of one end-to-end metric on one workload
// between the parent's runs and the change's, pair i of each taken in
// alternated order with the same seed.
type verdict struct {
	Parent, Change [3]float64 // first quartile, median, third quartile
	Wins, Losses   int        // pairs the change won and lost; ties count for neither
	Pairs          int
	Call           string // gain, regression, unchanged or unresolved
}

// minPairs is how many pairs -compare runs per workload, and the fewest
// a gain can rest on.
const minPairs = 10

// judge applies the rule for claiming a gain or a regression from
// paired runs in a noisy sandbox. A gain needs at least minPairs pairs,
// the change winning at least nine tenths of them and its median
// beating the parent's by more than the parent's interquartile range. A
// regression is a median worse than the parent's by more than bound, a
// share of the parent's median. Where either side's spread
// (interquartile range over median) exceeds bound, the metric is
// unresolved rather than unchanged, unless every run of one side beats
// every run of the other.
func judge(parent, change []float64, better string, bound float64) verdict {
	v := verdict{Pairs: min(len(parent), len(change))}
	for i, p := range []float64{0.25, 0.5, 0.75} {
		v.Parent[i], v.Change[i] = quantile(parent, p), quantile(change, p)
	}
	beats := func(a, b float64) bool { // a is better than b
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < v.Pairs; i++ {
		switch {
		case beats(change[i], parent[i]):
			v.Wins++
		case beats(parent[i], change[i]):
			v.Losses++
		}
	}
	dominates := func(a, b []float64) bool { // every a beats every b
		for _, x := range a {
			for _, y := range b {
				if !beats(x, y) {
					return false
				}
			}
		}
		return true
	}
	medP, medC := v.Parent[1], v.Change[1]
	iqrP := v.Parent[2] - v.Parent[0]
	spread := max(iqrP/abs(medP), (v.Change[2]-v.Change[0])/abs(medC))
	worseBy := (medC - medP) / abs(medP)
	if better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case v.Pairs >= minPairs && beats(medC, medP) && 10*v.Wins >= 9*v.Pairs && abs(medC-medP) > iqrP:
		v.Call = "gain"
	case worseBy > bound && (spread <= bound || dominates(parent, change)):
		v.Call = "regression"
	case spread > bound && !dominates(change, parent):
		v.Call = "unresolved"
	default:
		v.Call = "unchanged"
	}
	return v
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareCheckouts builds changeDir's benchmark against both checkouts,
// runs minPairs pairs of them per workload — alternating which side goes
// first, pair i on seed i+1 — and prints every end-to-end metric's
// verdict.
func compareCheckouts(parentDir, changeDir string, names []string, seconds int, stdout, stderr io.Writer) error {
	bf, err := readBenchmarkFile(filepath.Join(changeDir, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	dirs := [2]string{parentDir, changeDir}
	var bins [2]string
	for i, dir := range dirs {
		if bins[i], err = buildAgainst(dir, changeDir, stderr); err != nil {
			return fmt.Errorf("building the benchmark in %s: %w", dir, err)
		}
	}
	fmt.Fprintf(stdout, "%-8s %-22s %-34s %-34s %-7s %s\n", "workload", "metric",
		"parent q1/median/q3", "change q1/median/q3", "won", "verdict")
	for _, name := range names {
		var runs [2][]outcome
		for p := 0; p < minPairs; p++ {
			order := []int{0, 1}
			if p%2 == 1 {
				order = []int{1, 0}
			}
			for _, side := range order {
				res, err := runOnce(bins[side], dirs[side], name, uint64(p+1), seconds, stderr)
				if err != nil {
					return fmt.Errorf("%s run %d in %s: %w", name, p+1, dirs[side], err)
				}
				runs[side] = append(runs[side], res)
			}
		}
		failed := [2]int{}
		for side := range runs {
			for _, r := range runs[side] {
				failed[side] += r.Failed
			}
		}
		for _, m := range bf.EndToEnd {
			var vals [2][]float64
			for side := range runs {
				for _, r := range runs[side] {
					vals[side] = append(vals[side], r.Metrics[m.Name].Value)
				}
			}
			v := judge(vals[0], vals[1], m.Better, m.Bound)
			if v.Call == "gain" && failed[1] > failed[0] {
				v.Call = "unresolved" // a gain does not count when more operations fail
			}
			fmt.Fprintf(stdout, "%-8s %-22s %-34s %-34s %2d/%-4d %s\n", name, m.Name,
				triple(v.Parent), triple(v.Change), v.Wins, v.Pairs, v.Call)
		}
		fmt.Fprintf(stdout, "%-8s failed operations: parent %d, change %d\n", name, failed[0], failed[1])
	}
	return nil
}

func triple(q [3]float64) string {
	return fmt.Sprintf("%.4g / %.4g / %.4g", q[0], q[1], q[2])
}

// buildAgainst builds the benchmark sources of src/bench against the
// packages of checkout dir, through a build overlay so dir is left
// untouched, and returns the binary's path. Build products stay in
// dir/.bench_build.
func buildAgainst(dir, src string, stderr io.Writer) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	src, err = filepath.Abs(src)
	if err != nil {
		return "", err
	}
	build := filepath.Join(dir, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return "", err
	}
	replace := make(map[string]string)
	old, _ := filepath.Glob(filepath.Join(dir, "bench", "*.go")) // the pattern is valid
	for _, f := range old {
		replace[f] = "" // hidden unless src has it too
	}
	ours, _ := filepath.Glob(filepath.Join(src, "bench", "*.go"))
	for _, f := range ours {
		if !strings.HasSuffix(f, "_test.go") {
			replace[filepath.Join(dir, "bench", filepath.Base(f))] = f
		}
	}
	overlay, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		return "", err
	}
	ovl := filepath.Join(build, "overlay.json")
	if err := os.WriteFile(ovl, overlay, 0o644); err != nil {
		return "", err
	}
	bin := filepath.Join(build, "pcnbench-compare")
	cmd := exec.Command("go", "build", "-overlay", ovl, "-o", bin, "./bench")
	cmd.Dir = dir
	// The same toolchain environment bench/run.sh sets.
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"),
		"GOPATH="+filepath.Join(build, "gopath"), "XDG_CONFIG_HOME="+filepath.Join(build, "config"),
		"GOTOOLCHAIN=local")
	cmd.Stdout, cmd.Stderr = stderr, stderr
	return bin, cmd.Run()
}

// runOnce runs one untraced workload run of bin from dir and parses its
// result line. A run that reports failures is still a run; its failures
// are counted against its side.
func runOnce(bin, dir, name string, seed uint64, seconds int, stderr io.Writer) (outcome, error) {
	cmd := exec.Command(bin, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = dir
	cmd.Stderr = stderr
	last, err := relay(cmd, io.Discard)
	var res outcome
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, err
	}
	return res, nil
}
