package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/locman"
)

// startService boots a real manager+server pair for the CLI to talk to.
func startService(t *testing.T) string {
	t.Helper()
	mgr := jobs.New(jobs.Options{QueueDepth: 8, Workers: 2})
	srv := httptest.NewServer(server.New(mgr, server.Options{}))
	t.Cleanup(func() {
		srv.Close()
		_ = mgr.Shutdown(context.Background())
	})
	return srv.URL
}

// TestSubmitWaitByteIdentical drives the full CLI path: submit -wait
// must print on stdout exactly what pcnsim -json would for the same
// configuration.
func TestSubmitWaitByteIdentical(t *testing.T) {
	url := startService(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-addr", url, "submit",
		"-q", "0.05", "-c", "0.01", "-U", "100", "-V", "10", "-m", "3",
		"-terminals", "10", "-slots", "2000", "-shards", "2", "-seed", "1",
		"-loss", "0.1", "-telemetry-every", "500", "-wait"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	cfg := locman.NetworkConfig{
		Config: locman.Config{
			Model:      locman.TwoDimensional,
			MoveProb:   0.05,
			CallProb:   0.01,
			UpdateCost: 100,
			PollCost:   10,
			MaxDelay:   3,
		},
		Terminals:     10,
		Threshold:     -1,
		Faults:        locman.FaultPlan{UpdateLoss: 0.1},
		SnapshotEvery: 500,
		Seed:          1,
	}
	metrics, err := locman.SimulateNetworkSharded(cfg, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	enc := json.NewEncoder(&direct)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(metrics)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), direct.Bytes()) {
		t.Fatal("submit -wait output diverged from direct engine run")
	}
	if !strings.Contains(stderr.String(), "done") {
		t.Errorf("stderr never reported completion: %s", stderr.String())
	}
}

// directReport renders the locman Report for cfg exactly as pcnsim
// -json would, for byte comparisons against CLI output.
func directReport(t *testing.T, cfg locman.NetworkConfig, slots int64, shards int) []byte {
	t.Helper()
	metrics, err := locman.SimulateNetworkSharded(cfg, slots, shards)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	enc := json.NewEncoder(&direct)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(metrics)); err != nil {
		t.Fatal(err)
	}
	return direct.Bytes()
}

// TestSubmitScenarioByteIdentical drives the scenario path end to end:
// submit -scenario -wait must print the same bytes a direct engine run
// of the registered scenario produces — the registry parity contract.
func TestSubmitScenarioByteIdentical(t *testing.T) {
	url := startService(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-addr", url, "submit", "-scenario", "flash-crowd",
		"-terminals", "8", "-slots", "2000", "-shards", "2", "-seed", "4",
		"-telemetry-every", "500", "-wait"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	sc, err := locman.ScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sc.Network()
	cfg.Terminals = 8
	cfg.Seed = 4
	cfg.SnapshotEvery = 500
	if direct := directReport(t, cfg, 2000, 2); !bytes.Equal(stdout.Bytes(), direct) {
		t.Fatal("submit -scenario output diverged from the registry's direct run")
	}
}

// TestSubmitHeteroByteIdentical holds the Spec's declarative fleet to
// the -hetero parity contract against a direct locman.HeteroFleet run.
func TestSubmitHeteroByteIdentical(t *testing.T) {
	url := startService(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-addr", url, "submit", "-hetero",
		"-q", "0.1", "-c", "0.02", "-terminals", "13", "-slots", "2000",
		"-shards", "2", "-seed", "6", "-wait"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	cfg := locman.NetworkConfig{
		Config: locman.Config{
			Model:      locman.TwoDimensional,
			MoveProb:   0.1,
			CallProb:   0.02,
			UpdateCost: 100,
			PollCost:   10,
			MaxDelay:   3,
		},
		Terminals: 13,
		Threshold: -1,
		Fleet:     locman.HeteroFleet(0.1, 0.02),
		Seed:      6,
	}
	if direct := directReport(t, cfg, 2000, 2); !bytes.Equal(stdout.Bytes(), direct) {
		t.Fatal("submit -hetero output diverged from the direct fleet run")
	}
}

// TestSubcommands exercises get/list/cancel/result round-trips and the
// CLI's error surfaces.
func TestSubcommands(t *testing.T) {
	url := startService(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-addr", url, "submit",
		"-terminals", "10", "-slots", "2000", "-shards", "2", "-wait"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("submit: %v", err)
	}

	for _, tc := range []struct {
		args []string
		want string // substring of stdout
	}{
		{[]string{"-addr", url, "get", "j000001"}, `"state": "done"`},
		{[]string{"-addr", url, "list"}, `"jobs"`},
		{[]string{"-addr", url, "result", "j000001"}, `"schema": 1`},
		{[]string{"-addr", url, "watch", "j000001"}, `"type":"result"`},
	} {
		stdout.Reset()
		if err := run(tc.args, &stdout, &stderr); err != nil {
			t.Errorf("%v: %v", tc.args[2:], err)
			continue
		}
		if !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%v output missing %q:\n%s", tc.args[2:], tc.want, stdout.String())
		}
	}

	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-addr", url, "get", "j999999"}, "no such job"},
		{[]string{"-addr", url, "get"}, "usage"},
		{[]string{"-addr", url, "explode"}, "unknown command"},
		{[]string{"-addr", url}, "missing command"},
		{[]string{"-addr", url, "submit", "-terminals", "0"}, "terminals"},
		{[]string{"-addr", url, "submit", "-outage", "bogus"}, "start:end"},
		{[]string{"-addr", url, "submit", "-outage", "5:3"}, "inverted or empty"},
		{[]string{"-addr", url, "submit", "-scheme", "psychic"}, "unknown update scheme"},
		{[]string{"-addr", url, "submit", "-scheme", "timer"}, "timer scheme period"},
		{[]string{"-addr", url, "submit", "-scenario", "rush-hour"}, "unknown scenario"},
		{[]string{"-addr", url, "submit", "-scenario", "baseline", "-q", "0.3"},
			"conflicting flag(s): -q"},
		{[]string{"-addr", url, "submit", "-scenario", "baseline", "-hetero", "-loss", "0.1"},
			"conflicting flag(s): -hetero, -loss"},
	} {
		stdout.Reset()
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want substring %q", tc.args[2:], err, tc.want)
		}
	}
}
