package locman

import (
	"math"
	"reflect"
	"testing"
)

func valid() Config {
	return Config{
		Model:      TwoDimensional,
		MoveProb:   0.05,
		CallProb:   0.01,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   3,
	}
}

func TestOptimizeMatchesPaperTable2(t *testing.T) {
	// Table 2, U=100, delay 3: d* = 2, C_T = 1.335.
	res, err := Optimize(valid())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Threshold != 2 {
		t.Errorf("d* = %d, want 2", res.Best.Threshold)
	}
	if math.Abs(res.Best.Total-1.335) > 5e-4 {
		t.Errorf("C_T = %v, want 1.335", res.Best.Total)
	}
}

func TestEvaluateConsistentWithOptimize(t *testing.T) {
	cfg := valid()
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(cfg, res.Best.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if b != res.Best {
		t.Errorf("Evaluate(%d) = %+v, Optimize best = %+v", res.Best.Threshold, b, res.Best)
	}
}

func TestStationarySumsToOne(t *testing.T) {
	for _, m := range []Model{OneDimensional, TwoDimensional, TwoDimensionalApprox} {
		pi, err := Stationary(m, 0.1, 0.02, 6)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range pi {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%v: sum %v", m, sum)
		}
	}
	if _, err := StationaryClosedForm(OneDimensional, 0.1, 0.02, 6); err != nil {
		t.Error(err)
	}
	if _, err := StationaryClosedForm(TwoDimensional, 0.1, 0.02, 6); err == nil {
		t.Error("closed form for exact 2-D accepted")
	}
}

func TestNearOptimalAndAnneal(t *testing.T) {
	cfg := valid()
	scan, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	near, err := NearOptimal(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if diff := near.Best.Threshold - scan.Best.Threshold; diff < -1 || diff > 1 {
		t.Errorf("d′ = %d vs d* = %d", near.Best.Threshold, scan.Best.Threshold)
	}
	ann, err := OptimizeAnneal(cfg, AnnealOptions{Seed: 3, MaxThreshold: 40, Y: 150})
	if err != nil {
		t.Fatal(err)
	}
	if ann.Best.Total > scan.Best.Total*1.05 {
		t.Errorf("anneal %v vs scan %v", ann.Best.Total, scan.Best.Total)
	}
}

func TestSimulateNetworkAgreesWithEvaluate(t *testing.T) {
	cfg := valid()
	want, err := Evaluate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateNetwork(NetworkConfig{Config: cfg, Threshold: 2, Seed: 11}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("simulated %v vs analysis %v", got.TotalCost, want.Total)
	}
	if math.Abs(got.Delay.Mean()-want.ExpectedDelay) > 0.05 {
		t.Errorf("delay %v vs analysis %v", got.Delay.Mean(), want.ExpectedDelay)
	}
}

func TestSimulateNetworkSmoke(t *testing.T) {
	m, err := SimulateNetwork(NetworkConfig{
		Config:    valid(),
		Terminals: 5,
		Threshold: 2,
		Seed:      1,
	}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.NotFound != 0 {
		t.Errorf("%d paging failures", m.NotFound)
	}
	if m.Calls == 0 || m.Updates == 0 {
		t.Error("no traffic")
	}
}

func TestSimulateNetworkShardedMatchesSingleEngine(t *testing.T) {
	cfg := NetworkConfig{
		Config:    valid(),
		Terminals: 8,
		Threshold: 2,
		Seed:      7,
	}
	want, err := SimulateNetwork(cfg, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 3} {
		got, err := SimulateNetworkSharded(cfg, 5_000, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: sharded metrics diverged from SimulateNetwork", shards)
		}
	}
	if _, err := SimulateNetworkSharded(cfg, 5_000, -1); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestSimulateNetworkPerTerminal(t *testing.T) {
	m, err := SimulateNetwork(NetworkConfig{
		Config:    valid(),
		Terminals: 4,
		Threshold: 1,
		Fleet: &Fleet{Groups: []FleetGroup{
			{MoveProb: 0.02, CallProb: 0.01},
			{MoveProb: 0.03, CallProb: 0.01},
			{MoveProb: 0.04, CallProb: 0.01},
			{MoveProb: 0.05, CallProb: 0.01},
		}},
		Seed: 2,
	}, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Terminals != 4 {
		t.Errorf("terminals = %d", m.Terminals)
	}
}

func TestSimulateBaseline(t *testing.T) {
	cfg := valid()
	res, err := SimulateBaseline(cfg, BaselineLA, 2, 200_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 {
		t.Error("no calls")
	}
	if res.Delay.Mean() != 1 {
		t.Errorf("LA delay %v", res.Delay.Mean())
	}
	// Distance-based baseline equals the paper's mechanism.
	db, err := SimulateBaseline(cfg, BaselineDistanceBased, 2, 2_000_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(db.TotalCost-want.Total) / want.Total; rel > 0.03 {
		t.Errorf("baseline distance %v vs analysis %v", db.TotalCost, want.Total)
	}
}

func TestPartitionFactories(t *testing.T) {
	for _, p := range []Partition{SDF(), Blanket(), PerRing(), EqualCells(), OptimalDP()} {
		if p.Name() == "" {
			t.Error("unnamed partition")
		}
		byName, err := PartitionByName(p.Name())
		if err != nil {
			t.Errorf("ByName(%q): %v", p.Name(), err)
			continue
		}
		if byName.Name() != p.Name() {
			t.Errorf("round trip %q → %q", p.Name(), byName.Name())
		}
	}
	if _, err := PartitionByName("bogus"); err == nil {
		t.Error("bogus name accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Model: Model(9), MoveProb: 0.1, UpdateCost: 1, PollCost: 1},
		{Model: OneDimensional, MoveProb: -1, UpdateCost: 1, PollCost: 1},
		{Model: OneDimensional, MoveProb: 0.6, CallProb: 0.6, UpdateCost: 1, PollCost: 1},
		{Model: OneDimensional, MoveProb: 0.1, UpdateCost: -1, PollCost: 1},
		{Model: OneDimensional, MoveProb: 0.1, UpdateCost: 1, PollCost: 1, MaxThreshold: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := Optimize(cfg); err == nil {
			t.Errorf("case %d: Optimize accepted", i)
		}
		if _, err := Evaluate(cfg, 1); err == nil {
			t.Errorf("case %d: Evaluate accepted", i)
		}
		if _, err := NearOptimal(cfg, true); err == nil {
			t.Errorf("case %d: NearOptimal accepted", i)
		}
		if _, err := OptimizeAnneal(cfg, AnnealOptions{}); err == nil {
			t.Errorf("case %d: OptimizeAnneal accepted", i)
		}
		if _, err := SimulateNetwork(NetworkConfig{Config: cfg, Threshold: 1}, 100); err == nil {
			t.Errorf("case %d: SimulateNetwork accepted", i)
		}
		if _, err := SimulateBaseline(cfg, BaselineLA, 1, 100, 0); err == nil {
			t.Errorf("case %d: SimulateBaseline accepted", i)
		}
	}
}

func TestModelString(t *testing.T) {
	if OneDimensional.String() == "" || TwoDimensional.String() == "" {
		t.Error("empty model names")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown model String did not panic")
		}
	}()
	_ = Model(77).String()
}

func TestUnboundedDelayConstant(t *testing.T) {
	cfg := valid()
	cfg.MaxDelay = Unbounded
	res, err := Optimize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table 2, U=100, unbounded: d* = 2, C_T = 1.335.
	if res.Best.Threshold != 2 || math.Abs(res.Best.Total-1.335) > 5e-4 {
		t.Errorf("unbounded: %+v", res.Best)
	}
}
