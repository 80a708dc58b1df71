package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/jobs"
	"repro/locman"
)

// goldenSpec sets every faults field (ack_timeout -1, the ExplicitZero
// sentinel), two outage windows, a jittered two-group fleet, a scheme
// and a threshold. It is a wire fixture, not a runnable job.
func goldenSpec() jobs.Spec {
	d := 4
	return jobs.Spec{
		Model: "2d", MoveProb: 0.05, CallProb: 0.01, UpdateCost: 100, PollCost: 10, MaxDelay: 3,
		Partition: "sdf", Scheme: "timer", SchemeParam: 40,
		Fleet: &locman.Fleet{Groups: []locman.FleetGroup{
			{MoveProb: 0.04, CallProb: 0.01, QJitter: 0.2, CJitter: 0.1},
			{MoveProb: 0.08, CallProb: 0.02, QJitter: 0.5},
		}},
		Terminals: 12, Slots: 3000, Shards: 2, Threshold: &d,
		Faults: &locman.FaultPlan{UpdateLoss: 0.05, PollLoss: 0.02, ReplyLoss: 0.01,
			UpdateRetries: 2, AckTimeout: -1, PageRetries: 3,
			Outages: []locman.Outage{{Start: 100, End: 200}, {Start: 500, End: 650}}},
		SnapshotEvery: 500, Seed: 7, Engine: "cols", TimeoutSec: 30,
	}
}

// TestSpecWireGolden pins a job Spec's wire form, which the journal,
// the job documents and every cluster lease carry: its JSON bytes and
// its SpecRevision match the committed golden, the golden decodes back
// to the same Spec, and an unknown key inside the faults section or a
// fleet group is still refused.
func TestSpecWireGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/spec-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	golden = bytes.TrimSuffix(golden, []byte("\n"))
	spec := goldenSpec()
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("Spec JSON moved:\ngot:    %s\ngolden: %s", got, golden)
	}
	if rev, want := SpecRevision(spec, 2), "r39c1b60438829989"; rev != want {
		t.Errorf("SpecRevision = %s, want %s", rev, want)
	}

	decode := func(doc []byte) (jobs.Spec, error) {
		var s jobs.Spec
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		err := dec.Decode(&s)
		return s, err
	}
	back, err := decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("golden decodes to %+v, want %+v", back, spec)
	}
	for _, tc := range []struct{ at, extra string }{
		{`"ack_timeout":-1`, `,"ack_timout":5`},
		{`"q_jitter":0.5`, `,"jitter":1`},
	} {
		doc := bytes.Replace(golden, []byte(tc.at), []byte(tc.at+tc.extra), 1)
		if bytes.Equal(doc, golden) {
			t.Fatalf("%s not found in the golden", tc.at)
		}
		if _, err := decode(doc); err == nil {
			t.Errorf("unknown key %s accepted", tc.extra)
		}
	}
}
