package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"repro/locman"
)

// pcnsim runs the command on args with a fresh flag set and returns its
// stdout.
func pcnsim(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(flag.NewFlagSet("pcnsim", flag.ContinueOnError), args, &out)
	return out.String(), err
}

// directJSON renders cfg's report exactly as pcnsim -json prints it.
func directJSON(t *testing.T, cfg locman.NetworkConfig, slots int64, shards int) string {
	t.Helper()
	m, err := locman.SimulateNetworkSharded(cfg, slots, shards)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(m)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestParseOutages checks pcnsim's -outage flag end to end: well-formed
// windows reach the engine (the report matches a direct run with those
// windows) and malformed ones fail before any simulation work.
func TestParseOutages(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
		want []locman.Outage
		err  string
	}{
		{"single", "100:200", []locman.Outage{{Start: 100, End: 200}}, ""},
		{"multiple", "100:200,5000:5500",
			[]locman.Outage{{Start: 100, End: 200}, {Start: 5000, End: 5500}}, ""},
		{"spaces", " 1 : 2 ", []locman.Outage{{Start: 1, End: 2}}, ""},
		{"zero start", "0:10", []locman.Outage{{Start: 0, End: 10}}, ""},
		{"no colon", "100", nil, "not start:end"},
		{"garbage start", "x:200", nil, "invalid syntax"},
		{"garbage end", "100:y", nil, "invalid syntax"},
		{"inverted", "200:100", nil, "inverted or empty"},
		{"empty window", "100:100", nil, "inverted or empty"},
		{"negative start", "-5:10", nil, "negative slot"},
		{"negative both", "-10:-5", nil, "negative slot"},
		{"bad second window", "100:200,300:250", nil, "inverted or empty"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := pcnsim("-outage", tc.in, "-terminals", "4", "-slots", "6000",
				"-shards", "2", "-json")
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := directJSON(t, locman.NetworkConfig{
				Config: locman.Config{
					Model: locman.TwoDimensional, MoveProb: 0.05, CallProb: 0.01,
					UpdateCost: 100, PollCost: 10, MaxDelay: 3,
				},
				Terminals: 4,
				Threshold: -1,
				Faults:    locman.FaultPlan{Outages: tc.want},
				Seed:      1,
			}, 6000, 2)
			if got != want {
				t.Errorf("-outage %q report differs from a direct run with windows %v", tc.in, tc.want)
			}
		})
	}
}

// TestScenarioFlagConflicts checks the -scenario guard on pcnsim's whole
// command line: every model flag is caught, in flag spelling, while the
// run-shape flags and pcnsim's own output flags pass.
func TestScenarioFlagConflicts(t *testing.T) {
	shape := []string{"-scenario", "baseline", "-terminals", "4", "-slots", "500",
		"-seed", "3", "-shards", "2", "-engine", "des", "-telemetry-every", "100", "-d", "2"}
	if _, err := pcnsim(append(shape, "-json")...); err != nil {
		t.Errorf("run-shape flags reported as conflicts: %v", err)
	}
	_, err := pcnsim(append(shape, "-outage", "1:2", "-q", "0.1", "-scheme", "timer", "-hetero", "-json")...)
	want := "conflicting flag(s): -hetero, -outage, -q, -scheme"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want containing %q", err, want)
	}
}

func TestPercent(t *testing.T) {
	for _, tc := range []struct {
		part, whole int64
		want        string
	}{
		{0, 0, "0.00%"},
		{5, 0, "0.00%"},
		{1, 4, "25.00%"},
		{4, 4, "100.00%"},
		{1, 3, "33.33%"},
	} {
		if got := percent(tc.part, tc.whole); got != tc.want {
			t.Errorf("percent(%d, %d) = %q, want %q", tc.part, tc.whole, got, tc.want)
		}
	}
}

// runReport produces a real report from a small deterministic faulty run,
// so printReport is exercised against engine-shaped data.
func runReport(t *testing.T) *locman.Report {
	t.Helper()
	m, err := locman.SimulateNetworkSharded(locman.NetworkConfig{
		Config: locman.Config{
			Model: locman.TwoDimensional, MoveProb: 0.15, CallProb: 0.03,
			UpdateCost: 20, PollCost: 1, MaxDelay: 3,
		},
		Terminals: 6,
		Threshold: 2,
		Faults:    locman.FaultPlan{UpdateLoss: 0.3, UpdateRetries: 2, PageRetries: 2},
		Seed:      11,
	}, 2_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return locman.NewReport(m)
}

// TestPrintReportLostUpdates checks the lost-updates line is labelled and
// computed against transmission attempts — the population the loss
// probability applies to — so the printed rate tracks the injected one.
func TestPrintReportLostUpdates(t *testing.T) {
	r := runReport(t)
	if r.LostUpdates == 0 {
		t.Fatal("run injected no losses")
	}
	var b strings.Builder
	printReport(&b, r)
	out := b.String()
	want := "(" + percent(r.LostUpdates, r.Updates) + " of "
	line := lineContaining(out, "lost updates")
	if line == "" || !strings.Contains(line, want) || !strings.Contains(line, "attempts") {
		t.Errorf("lost-updates line %q does not report against attempts (want %q)", line, want)
	}
}

// TestPrintReportThresholdUsage checks the threshold-usage line appears
// exactly when there is usage to show.
func TestPrintReportThresholdUsage(t *testing.T) {
	r := runReport(t)
	var with strings.Builder
	printReport(&with, r)
	if !strings.Contains(with.String(), "threshold usage") {
		t.Error("threshold usage line missing from a run that recorded usage")
	}

	r.ThresholdSlots = nil
	var without strings.Builder
	printReport(&without, r)
	if strings.Contains(without.String(), "threshold usage") {
		t.Error("empty threshold usage printed a bare label line")
	}
}

// TestPrintReportQuantiles checks the tail-quantile lines follow the
// histograms: present with samples, absent without.
func TestPrintReportQuantiles(t *testing.T) {
	r := runReport(t)
	var b strings.Builder
	printReport(&b, r)
	if !strings.Contains(b.String(), "delay tail") {
		t.Error("delay tail line missing despite samples")
	}

	r.DelayHist = nil
	r.RecoveryHist = nil
	var bare strings.Builder
	printReport(&bare, r)
	if strings.Contains(bare.String(), "delay tail") || strings.Contains(bare.String(), "recovery tail") {
		t.Error("tail lines printed without histograms")
	}
}

// lineContaining returns the first output line containing substr.
func lineContaining(out, substr string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}

// TestAnalyticFooter checks the text report's analytical comparison
// follows the run description: printed for the homogeneous static
// distance case however the scheme is spelled, omitted where the cost
// model does not apply.
func TestAnalyticFooter(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{nil, true},
		{[]string{"-scheme", "distance", "-model", "1d"}, true},
		{[]string{"-partition", "blanket", "-d", "2"}, true},
		{[]string{"-scheme", "timer", "-scheme-param", "50"}, false},
		{[]string{"-hetero"}, false},
		{[]string{"-dynamic"}, false},
		{[]string{"-scenario", "baseline"}, false},
	} {
		out, err := pcnsim(append(tc.args, "-terminals", "4", "-slots", "500", "-shards", "2")...)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := strings.Contains(out, "analytical C_T"); got != tc.want {
			t.Errorf("%v: analytical footer printed = %v, want %v", tc.args, got, tc.want)
		}
	}
}
