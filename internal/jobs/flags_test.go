package jobs

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/locman"
)

// parseSpec parses args with a fresh SpecFlags set and builds the Spec.
func parseSpec(args ...string) (Spec, error) {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	specOf := SpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Spec{}, err
	}
	return specOf()
}

// TestParseOutages parses -outage values. ParseOutages checks the
// syntax; a window that parses but is negative, inverted or empty must
// then be refused by Spec.Validate with the engine's error.
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
			got, err := ParseOutages(tc.in)
			if err == nil && tc.err != "" {
				spec := validSpec()
				spec.Faults = &locman.FaultPlan{Outages: got}
				err = spec.Validate()
			}
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("err = %v, want containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("window %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestSpecFlagsModelFlags parses every model flag on its own: without a
// scenario it lands in its Spec field, and alongside -scenario it is
// rejected by its flag name — the only conflict reported.
func TestSpecFlagsModelFlags(t *testing.T) {
	faults := func(s Spec) locman.FaultPlan {
		if s.Faults == nil {
			return locman.FaultPlan{}
		}
		return *s.Faults
	}
	for _, tc := range []struct {
		flag, value string
		got         func(Spec) any
		want        any
	}{
		{"model", "1d", func(s Spec) any { return s.Model }, "1d"},
		{"q", "0.2", func(s Spec) any { return s.MoveProb }, 0.2},
		{"c", "0.03", func(s Spec) any { return s.CallProb }, 0.03},
		{"U", "50", func(s Spec) any { return s.UpdateCost }, 50.0},
		{"V", "5", func(s Spec) any { return s.PollCost }, 5.0},
		{"m", "2", func(s Spec) any { return s.MaxDelay }, 2},
		{"partition", "blanket", func(s Spec) any { return s.Partition }, "blanket"},
		{"dynamic", "true", func(s Spec) any { return s.Dynamic }, true},
		{"reoptimize-every", "500", func(s Spec) any { return s.ReoptimizeEvery }, int64(500)},
		{"hetero", "true", func(s Spec) any { return s.Fleet }, locman.HeteroFleet(0.05, 0.01)},
		{"scheme", "movement", func(s Spec) any { return s.Scheme }, "movement"},
		{"scheme-param", "6", func(s Spec) any { return s.SchemeParam }, int64(6)},
		{"loss", "0.1", func(s Spec) any { return faults(s).UpdateLoss }, 0.1},
		{"poll-loss", "0.2", func(s Spec) any { return faults(s).PollLoss }, 0.2},
		{"reply-loss", "0.3", func(s Spec) any { return faults(s).ReplyLoss }, 0.3},
		{"update-retries", "2", func(s Spec) any { return faults(s).UpdateRetries }, 2},
		{"ack-timeout", "7", func(s Spec) any { return faults(s).AckTimeout }, int64(7)},
		{"page-retries", "4", func(s Spec) any { return faults(s).PageRetries }, 4},
		{"outage", "10:20", func(s Spec) any { return faults(s).Outages }, []locman.Outage{{Start: 10, End: 20}}},
	} {
		arg := "-" + tc.flag + "=" + tc.value
		spec, err := parseSpec(arg)
		if err != nil {
			t.Errorf("%s: %v", arg, err)
			continue
		}
		if got := tc.got(spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: field = %#v, want %#v", arg, got, tc.want)
		}
		_, err = parseSpec("-scenario", "baseline", "-terminals", "5", arg)
		want := "-scenario baseline fixes the model; drop the conflicting flag(s): -" + tc.flag
		if err == nil || err.Error() != want {
			t.Errorf("-scenario baseline %s: err = %v, want %q", arg, err, want)
		}
	}
	if n, want := len(scenarioFixedFlags), 19; n != want {
		t.Errorf("%d scenario-fixed flags, want %d", n, want)
	}
}

// TestSpecFlagsScenarioRunShape: a scenario Spec carries the run shape
// and leaves every model field unset, so the non-zero model-flag
// defaults do not conflict with the scenario.
func TestSpecFlagsScenarioRunShape(t *testing.T) {
	spec, err := parseSpec("-scenario", "flash-crowd", "-terminals", "8", "-slots", "300",
		"-seed", "4", "-shards", "2", "-engine", "des", "-telemetry-every", "100", "-d", "2")
	if err != nil {
		t.Fatal(err)
	}
	d := 2
	want := Spec{Scenario: "flash-crowd", Terminals: 8, Slots: 300, Seed: 4, Shards: 2,
		Engine: "des", SnapshotEvery: 100, Threshold: &d}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSpecFlagsJSON pins the exact Spec document the flags build: the
// defaults, and one line that sets every model flag away from its
// default.
func TestSpecFlagsJSON(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"defaults", []string{"-shards", "2"},
			`{"model":"2d","move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,` +
				`"terminals":20,"slots":200000,"shards":2,"seed":1,"engine":"cols"}`},
		{"every model flag", []string{
			"-model", "1d", "-q", "0.1", "-c", "0.02", "-U", "50", "-V", "5", "-m", "2",
			"-partition", "blanket", "-dynamic", "-reoptimize-every", "500", "-hetero",
			"-scheme", "timer", "-scheme-param", "40", "-loss", "0.1", "-poll-loss", "0.2",
			"-reply-loss", "0.3", "-update-retries", "2", "-ack-timeout", "7", "-page-retries", "4",
			"-outage", "10:20,30:40", "-terminals", "9", "-slots", "1000", "-d", "3", "-seed", "5",
			"-shards", "2", "-engine", "des", "-telemetry-every", "100"},
			`{"model":"1d","move_prob":0.1,"call_prob":0.02,"update_cost":50,"poll_cost":5,"max_delay":2,` +
				`"partition":"blanket","scheme":"timer","scheme_param":40,"fleet":{"groups":[` +
				`{"move_prob":0.05,"call_prob":0.02},{"move_prob":0.06,"call_prob":0.02},` +
				`{"move_prob":0.06999999999999999,"call_prob":0.02},{"move_prob":0.08000000000000002,"call_prob":0.02},` +
				`{"move_prob":0.09000000000000001,"call_prob":0.02},{"move_prob":0.1,"call_prob":0.02},` +
				`{"move_prob":0.11000000000000001,"call_prob":0.02},{"move_prob":0.12,"call_prob":0.02},` +
				`{"move_prob":0.13,"call_prob":0.02},{"move_prob":0.13999999999999999,"call_prob":0.02},` +
				`{"move_prob":0.15000000000000002,"call_prob":0.02}]},` +
				`"terminals":9,"slots":1000,"shards":2,"threshold":3,"dynamic":true,"reoptimize_every":500,` +
				`"faults":{"update_loss":0.1,"poll_loss":0.2,"reply_loss":0.3,"update_retries":2,"ack_timeout":7,` +
				`"page_retries":4,"outages":[{"start":10,"end":20},{"start":30,"end":40}]},` +
				`"snapshot_every":100,"seed":5,"engine":"des"}`},
	} {
		spec, err := parseSpec(tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\ngot:  %s\nwant: %s", tc.name, got, tc.want)
		}
	}
}
