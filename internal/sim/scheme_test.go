package sim

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chain"
)

// TestSchemeByName pins the scheme registry's resolution behaviour: the
// valid (name, param) combinations, the default spelling, and every
// rejection — each error naming the offending value and, for unknown
// names, enumerating the valid ones so CLI and API users can self-serve.
func TestSchemeByName(t *testing.T) {
	for _, tc := range []struct {
		name  string
		param int64
		want  string // resolved scheme name; "" means an error
		err   string
	}{
		{"", 0, "distance", ""},
		{"distance", 0, "distance", ""},
		{"timer", 100, "timer", ""},
		{"movement", 4, "movement", ""},
		{"distance", 3, "", "takes no parameter"},
		{"", 3, "", "takes no parameter"},
		{"timer", 0, "", "timer scheme period 0 slots, want positive"},
		{"timer", -5, "", "timer scheme period -5 slots, want positive"},
		{"movement", 0, "", "movement scheme count 0 crossings, want positive"},
		{"movement", -1, "", "movement scheme count -1 crossings, want positive"},
		{"bogus", 0, "", `unknown update scheme "bogus" (valid schemes: distance, timer, movement)`},
		{"Distance", 0, "", "unknown update scheme"}, // names are case-sensitive
	} {
		got, err := SchemeByName(tc.name, tc.param)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("SchemeByName(%q, %d) err = %v, want containing %q", tc.name, tc.param, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("SchemeByName(%q, %d): %v", tc.name, tc.param, err)
			continue
		}
		if got.Name() != tc.want || got.Param() != tc.param {
			t.Errorf("SchemeByName(%q, %d) = %s(%d), want %s(%d)",
				tc.name, tc.param, got.Name(), got.Param(), tc.want, tc.param)
		}
	}
}

// TestSchemeNamesMatchKinds checks the registry list, the public Name
// methods and the engines' internal dispatch tags all agree on spelling,
// since error messages and checkpoint identity are built from both.
func TestSchemeNamesMatchKinds(t *testing.T) {
	names := SchemeNames()
	kinds := []schemeKind{schemeDistance, schemeTimer, schemeMovement}
	if len(names) != len(kinds) {
		t.Fatalf("%d names for %d kinds", len(names), len(kinds))
	}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("kind %d spells %q, registry says %q", i, k.String(), names[i])
		}
	}
}

// TestValidateSchemeConstraints covers start-of-run rejection: an
// invalid scheme parameter smuggled in as a literal, and the dynamic
// mechanism combined with a trigger it cannot re-optimize.
func TestValidateSchemeConstraints(t *testing.T) {
	run := func(mutate func(*Config)) error {
		cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 2)
		mutate(&cfg)
		_, err := Run(cfg, 1_000)
		return err
	}
	if err := run(func(c *Config) { c.Scheme = TimerScheme{Every: 0} }); err == nil ||
		!strings.Contains(err.Error(), "timer scheme period 0") {
		t.Errorf("zero timer period accepted: %v", err)
	}
	if err := run(func(c *Config) { c.Scheme = MovementScheme{Count: -2} }); err == nil ||
		!strings.Contains(err.Error(), "movement scheme count -2") {
		t.Errorf("negative movement count accepted: %v", err)
	}
	err := run(func(c *Config) {
		c.Dynamic = true
		c.Scheme = TimerScheme{Every: 50}
	})
	if err == nil || !strings.Contains(err.Error(), "dynamic per-user mechanism requires the distance update scheme (got timer)") {
		t.Errorf("dynamic+timer accepted: %v", err)
	}
	// The distance scheme (explicit or nil) stays dynamic-compatible.
	if err := run(func(c *Config) { c.Dynamic = true; c.Scheme = DistanceScheme{} }); err != nil {
		t.Errorf("dynamic+distance rejected: %v", err)
	}
}

// TestPerTerminalInvalidRejected pins the heterogeneous-fleet validation
// fix: a PerTerminal callback producing invalid parameters for one
// terminal must fail the run up front with an error naming that
// terminal, not silently simulate garbage (or panic mid-run).
func TestPerTerminalInvalidRejected(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 2)
	cfg.Terminals = 8
	cfg.PerTerminal = func(i int) chain.Params {
		if i == 5 {
			return chain.Params{Q: 0.9, C: 0.4} // q + c > 1
		}
		return chain.Params{Q: 0.1, C: 0.02}
	}
	_, err := RunSharded(cfg, 1_000, 3)
	if err == nil {
		t.Fatal("invalid per-terminal parameters accepted")
	}
	if !strings.Contains(err.Error(), "terminal 5") {
		t.Errorf("error %q does not name the offending terminal", err)
	}
}

// TestResumeSchemeIdentity checks checkpoints carry the update scheme:
// resuming under a different scheme or parameter is rejected, and so is
// a checkpoint with no scheme name, even under the distance scheme.
func TestResumeSchemeIdentity(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.15, 0.03, 2, 2)
	cfg.Terminals = 4
	cfg.Scheme = TimerScheme{Every: 60}
	const slots = 2_000

	var cp *Checkpoint
	if _, err := RunShardedOpts(context.Background(), cfg, slots, 2, RunOpts{
		CheckpointEvery: 1_000,
		CheckpointSink:  func(c *Checkpoint) { cp = c },
	}); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}

	resume := func(scheme UpdateScheme, c *Checkpoint) error {
		rcfg := cfg
		rcfg.Scheme = scheme
		_, err := RunShardedOpts(context.Background(), rcfg, slots, 2, RunOpts{Resume: c})
		return err
	}

	if err := resume(TimerScheme{Every: 60}, cp); err != nil {
		t.Errorf("same-scheme resume failed: %v", err)
	}
	if err := resume(TimerScheme{Every: 61}, cp); err == nil ||
		!strings.Contains(err.Error(), "checkpoint is for update scheme timer(60), run wants timer(61)") {
		t.Errorf("parameter drift accepted: %v", err)
	}
	if err := resume(MovementScheme{Count: 60}, cp); err == nil ||
		!strings.Contains(err.Error(), "run wants movement(60)") {
		t.Errorf("scheme drift accepted: %v", err)
	}

	// Every writer records the scheme name; an empty one is not read
	// as distance.
	dcfg := cfg
	dcfg.Scheme = nil
	var dcp *Checkpoint
	if _, err := RunShardedOpts(context.Background(), dcfg, slots, 2, RunOpts{
		CheckpointEvery: 1_000,
		CheckpointSink:  func(c *Checkpoint) { dcp = c },
	}); err != nil {
		t.Fatal(err)
	}
	if err := resume(DistanceScheme{}, dcp); err != nil {
		t.Errorf("distance resume failed: %v", err)
	}
	dcp.Scheme = ""
	if err := resume(DistanceScheme{}, dcp); err == nil ||
		!strings.Contains(err.Error(), "checkpoint is for update scheme (0), run wants distance(0)") {
		t.Errorf("scheme-less checkpoint accepted: %v", err)
	}
}
