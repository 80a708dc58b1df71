package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chain"
)

// TestZeroFaultPlanGoldenBaseline pins the exact metrics the
// pre-fault-subsystem engine (commit 1847fe4) produced for two reference
// configurations. A zero FaultPlan must take no RNG draws and schedule no
// extra events, so every counter — and every floating-point aggregate, bit
// for bit — must still match after the recovery subsystem landed.
func TestZeroFaultPlanGoldenBaseline(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 3)
	cfg.Terminals = 8
	cfg.Seed = 42
	m, err := Run(cfg, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	intChecks := []struct {
		name string
		got  int64
		want int64
	}{
		{"Updates", m.Updates, 674},
		{"Calls", m.Calls, 3268},
		{"PolledCells", m.PolledCells, 58606},
		{"UpdateBytes", m.UpdateBytes, 12806},
		{"PollBytes", m.PollBytes, 1054908},
		{"ReplyBytes", m.ReplyBytes, 55556},
		{"Events", int64(m.Events), 27727},
		{"Delay.N", m.Delay.N(), 3268},
	}
	for _, c := range intChecks {
		if c.got != c.want {
			t.Errorf("%s = %d, want pre-PR baseline %d", c.name, c.got, c.want)
		}
	}
	bitChecks := []struct {
		name string
		got  float64
		want uint64
	}{
		{"Delay.Mean", m.Delay.Mean(), 0x3ff5d4c2458fd2e1},
		{"TotalCost", m.TotalCost, 0x40105624dd2f1aa0},
		{"UpdateCost", m.UpdateCost, 0x3fdaf5c28f5c28f6},
		{"PagingCost", m.PagingCost, 0x400d4d916872b021},
	}
	for _, c := range bitChecks {
		if math.Float64bits(c.got) != c.want {
			t.Errorf("%s = %v (bits %#x), want pre-PR baseline bits %#x",
				c.name, c.got, math.Float64bits(c.got), c.want)
		}
	}
	assertNoFaultActivity(t, m)

	// The dynamic per-user scheme consumes the RNG streams differently;
	// pin it too so the zero-fault contract covers every consumer.
	dyn := baseConfig(chain.TwoDimExact, 0.2, 0.01, 2, 1)
	dyn.Terminals = 6
	dyn.Dynamic = true
	dyn.ReoptimizeEvery = 500
	dyn.EWMAAlpha = 0.02
	dyn.Seed = 7
	dm, err := Run(dyn, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Updates != 1190 || dm.Calls != 622 || dm.PolledCells != 25882 || dm.Events != 11534 {
		t.Errorf("dynamic run diverged from pre-PR baseline: Updates=%d Calls=%d PolledCells=%d Events=%d",
			dm.Updates, dm.Calls, dm.PolledCells, dm.Events)
	}
	// Delay.Mean is the float64 nearest Σx/n. The baseline engine's
	// Welford mean sat one ulp above it (bits …1b2b); the counters above
	// pin the run itself.
	if math.Float64bits(dm.Delay.Mean()) != 0x3ff775b5ea991b2a ||
		math.Float64bits(dm.TotalCost) != 0x40193020c49ba5e3 {
		t.Errorf("dynamic aggregates diverged from pre-PR baseline: DelayMean bits %#x, TotalCost bits %#x",
			math.Float64bits(dm.Delay.Mean()), math.Float64bits(dm.TotalCost))
	}
	assertNoFaultActivity(t, dm)
}

func assertNoFaultActivity(t *testing.T, m *Metrics) {
	t.Helper()
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"LostUpdates", m.LostUpdates},
		{"LostPolls", m.LostPolls},
		{"LostReplies", m.LostReplies},
		{"FallbackCalls", m.FallbackCalls},
		{"Retransmissions", m.Retransmissions},
		{"Acks", m.Acks},
		{"AckBytes", m.AckBytes},
		{"RePolls", m.RePolls},
		{"DroppedCalls", m.DroppedCalls},
		{"OutageDeferred", m.OutageDeferred},
		{"NotFound", m.NotFound},
		{"Recovery.N", m.Recovery.N()},
	} {
		if c.v != 0 {
			t.Errorf("zero-fault run produced %s = %d", c.name, c.v)
		}
	}
}

// faultyConfig is a configuration with every failure mode switched on at
// once: uplink update loss, downlink poll loss, uplink reply loss, acked
// updates with retransmission, a tight paging retry budget and two HLR
// outage windows.
func faultyConfig() Config {
	cfg := baseConfig(chain.TwoDimExact, 0.15, 0.03, 2, 3)
	cfg.Terminals = 16
	// Snapshots on, so the shard-invariance checks cover the telemetry
	// series under a nonzero FaultPlan too.
	cfg.Telemetry.SnapshotEvery = 1_000
	cfg.Faults = FaultPlan{
		UpdateLoss:    0.25,
		PollLoss:      0.15,
		ReplyLoss:     0.15,
		UpdateRetries: 3,
		PageRetries:   4,
		Outages:       []Outage{{Start: 500, End: 900}, {Start: 2000, End: 2200}},
	}
	return cfg
}

// TestFaultShardInvariance is the acceptance property: with every failure
// mode injected at once, RunSharded stays bit-identical for shard counts
// 1, 3 and 8 (run under -race in CI, covering shard isolation too).
func TestFaultShardInvariance(t *testing.T) {
	cfg := faultyConfig()
	const slots = 4_000

	want, err := RunSharded(cfg, slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The reference run must actually exercise every injected mode.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"LostUpdates", want.LostUpdates},
		{"LostPolls", want.LostPolls},
		{"LostReplies", want.LostReplies},
		{"FallbackCalls", want.FallbackCalls},
		{"Retransmissions", want.Retransmissions},
		{"RePolls", want.RePolls},
		{"OutageDeferred", want.OutageDeferred},
		{"Recovery.N", want.Recovery.N()},
	} {
		if c.v == 0 {
			t.Fatalf("reference faulty run never exercised %s", c.name)
		}
	}
	if want.NotFound != 0 {
		t.Fatalf("%d NotFound calls escaped the recovery machinery", want.NotFound)
	}
	if len(want.Snapshots) == 0 || want.RecoveryHist.N == 0 {
		t.Fatalf("faulty reference run captured no telemetry: %d frames, recovery hist N %d",
			len(want.Snapshots), want.RecoveryHist.N)
	}
	for _, shards := range []int{3, 8} {
		got, err := RunSharded(cfg, slots, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("shards=%d: faulty metrics diverged from single-shard run\nwant %+v\ngot  %+v",
				shards, want, got)
		}
	}
}

// TestAckRetransmissionRecoversLostUpdates checks the acked exchange does
// its job: with a retry budget, almost every lost update is retransmitted
// successfully before the next call, so far fewer pages miss the nominal
// plan than with fire-and-forget updates under the same loss.
func TestAckRetransmissionRecoversLostUpdates(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 3)
	cfg.Terminals = 4
	cfg.Faults.UpdateLoss = 0.4

	fireAndForget, err := Run(cfg, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	acked := cfg
	acked.Faults.UpdateRetries = 4
	got, err := Run(acked, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Retransmissions == 0 {
		t.Fatal("no retransmissions despite 40% update loss and a retry budget")
	}
	if got.Acks == 0 || got.AckBytes == 0 {
		t.Errorf("acked exchange produced no acks: %d acks, %d bytes", got.Acks, got.AckBytes)
	}
	// With P(all 5 transmissions lost) = 0.4^5 ≈ 1%, desync episodes are
	// ~40x rarer than fire-and-forget's 40%: the fallback rate must drop
	// by a wide margin.
	ffRate := float64(fireAndForget.FallbackCalls) / float64(fireAndForget.Calls)
	ackRate := float64(got.FallbackCalls) / float64(got.Calls)
	if ackRate > ffRate/3 {
		t.Errorf("fallback rate %v with acks not well below %v without", ackRate, ffRate)
	}
	// Retransmission recovery is much faster than waiting for the next
	// page: mean recovery latency must shrink.
	if fireAndForget.Recovery.N() == 0 || got.Recovery.N() == 0 {
		t.Fatal("no recovery episodes recorded")
	}
	if got.Recovery.Mean() >= fireAndForget.Recovery.Mean() {
		t.Errorf("mean recovery latency %v slots with acks not below %v without",
			got.Recovery.Mean(), fireAndForget.Recovery.Mean())
	}
}

// TestHLROutageDefersRegistrations checks outage windows: updates arriving
// while the HLR is down are counted and not applied, retransmission keeps
// trying past short windows, and the system recovers afterwards.
func TestHLROutageDefersRegistrations(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.3, 0.02, 2, 2)
	cfg.Terminals = 4
	cfg.Faults.Outages = []Outage{{Start: 1_000, End: 3_000}}
	m, err := Run(cfg, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.OutageDeferred == 0 {
		t.Fatal("no deferred registrations despite a 2000-slot outage")
	}
	if m.LostUpdates != 0 {
		t.Errorf("outage run lost %d updates with zero loss probability", m.LostUpdates)
	}
	if m.NotFound != 0 {
		t.Errorf("%d unresolved calls", m.NotFound)
	}
	if m.Recovery.N() == 0 {
		t.Error("no recovery episodes despite outage-deferred registrations")
	}

	// With acked updates, the terminal notices the outage (no ack) and
	// retransmits; windows shorter than the backoff horizon are ridden out.
	acked := cfg
	acked.Faults.UpdateRetries = 8
	am, err := Run(acked, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if am.Retransmissions == 0 {
		t.Error("no retransmissions despite an outage and a retry budget")
	}
	if am.OutageDeferred <= m.OutageDeferred {
		t.Errorf("retransmissions into the outage should raise deferred registrations: %d vs %d",
			am.OutageDeferred, m.OutageDeferred)
	}
}

// TestPollReplyLossRePollsAndDrops checks the downlink/uplink paging loss
// modes: lost polls and replies trigger recovery rounds, and a hostile
// loss rate with a tight budget produces dropped calls — cleanly counted,
// never NotFound.
func TestPollReplyLossRePollsAndDrops(t *testing.T) {
	cfg := baseConfig(chain.TwoDimExact, 0.1, 0.02, 2, 3)
	cfg.Terminals = 4
	clean, err := Run(cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	lossy := cfg
	lossy.Faults.PollLoss = 0.3
	lossy.Faults.ReplyLoss = 0.3
	m, err := Run(lossy, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.LostPolls == 0 || m.LostReplies == 0 {
		t.Fatalf("loss modes not exercised: %d lost polls, %d lost replies",
			m.LostPolls, m.LostReplies)
	}
	if m.RePolls == 0 {
		t.Error("no recovery rounds despite lost polls and replies")
	}
	// Updates are reliable here, so the nominal plan always contains the
	// terminal: no drift-driven fallbacks.
	if m.FallbackCalls != 0 {
		t.Errorf("%d fallback calls without update loss", m.FallbackCalls)
	}
	if m.NotFound != 0 {
		t.Errorf("%d unresolved calls", m.NotFound)
	}
	if int64(m.Delay.N())+m.DroppedCalls != m.Calls {
		t.Errorf("delay samples %d + dropped %d != calls %d",
			m.Delay.N(), m.DroppedCalls, m.Calls)
	}
	if m.Delay.Mean() <= clean.Delay.Mean() {
		t.Errorf("mean delay %v under paging loss not above clean %v",
			m.Delay.Mean(), clean.Delay.Mean())
	}

	// Hostile loss with a minimal retry budget must drop calls.
	hostile := cfg
	hostile.Faults.PollLoss = 0.9
	hostile.Faults.ReplyLoss = 0.9
	hostile.Faults.PageRetries = 2
	hm, err := Run(hostile, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if hm.DroppedCalls == 0 {
		t.Fatal("no dropped calls at 90% paging loss with a 2-round budget")
	}
	if hm.NotFound != 0 {
		t.Errorf("%d unresolved calls surfaced as NotFound instead of DroppedCalls", hm.NotFound)
	}
	if int64(hm.Delay.N())+hm.DroppedCalls != hm.Calls {
		t.Errorf("delay samples %d + dropped %d != calls %d",
			hm.Delay.N(), hm.DroppedCalls, hm.Calls)
	}
}

// TestFaultPlanValidation is the table-driven error-path coverage for
// malformed fault configurations.
func TestFaultPlanValidation(t *testing.T) {
	good := baseConfig(chain.OneDim, 0.1, 0.1, 1, 1)
	good.Terminals = 2
	for _, tc := range []struct {
		name   string
		mutate func(*FaultPlan)
		want   string
	}{
		{"negative update loss", func(f *FaultPlan) { f.UpdateLoss = -0.1 }, "update loss"},
		{"update loss of one", func(f *FaultPlan) { f.UpdateLoss = 1.0 }, "update loss"},
		{"poll loss above one", func(f *FaultPlan) { f.PollLoss = 1.5 }, "poll loss"},
		{"negative reply loss", func(f *FaultPlan) { f.ReplyLoss = -2 }, "reply loss"},
		{"negative update retries", func(f *FaultPlan) { f.UpdateRetries = -1 }, "retry budget"},
		{"overflowing update retries", func(f *FaultPlan) { f.UpdateRetries = 64 }, "retry budget"},
		{"negative ack timeout", func(f *FaultPlan) { f.AckTimeout = -5 }, "ack timeout"},
		{"negative page retries", func(f *FaultPlan) { f.PageRetries = -2 }, "paging retry budget"},
		{"page retries beyond slot ticks", func(f *FaultPlan) { f.PageRetries = SlotTicks }, "polling ticks"},
		{"inverted outage window", func(f *FaultPlan) { f.Outages = []Outage{{Start: 9, End: 3}} }, "inverted"},
		{"empty outage window", func(f *FaultPlan) { f.Outages = []Outage{{Start: 5, End: 5}} }, "inverted"},
		{"negative outage start", func(f *FaultPlan) { f.Outages = []Outage{{Start: -1, End: 4}} }, "negative slot"},
		{"second window malformed", func(f *FaultPlan) {
			f.Outages = []Outage{{Start: 0, End: 10}, {Start: 20, End: 15}}
		}, "inverted"},
	} {
		cfg := good
		tc.mutate(&cfg.Faults)
		_, err := Run(cfg, 100)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The good config itself must pass, so the cases above fail for their
	// stated reason and not a latent one.
	if _, err := Run(good, 100); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// TestExplicitZeroFaultKnobs is the regression for the withDefaults fix:
// a zero AckTimeout/PageRetries means "unset" and takes the default, so a
// caller who wants a literal zero says so with the ExplicitZero sentinel —
// previously indistinguishable and silently overwritten.
func TestExplicitZeroFaultKnobs(t *testing.T) {
	lossy := func() Config {
		cfg := baseConfig(chain.TwoDimExact, 0.2, 0.05, 2, 3)
		cfg.Terminals = 8
		cfg.Faults = FaultPlan{PollLoss: 0.4}
		return cfg
	}

	// An unset budget takes the default and the recovery rounds absorb
	// the injected poll losses; an explicit zero budget drops every call
	// the nominal plan misses. The two runs must actually diverge, or the
	// sentinel is being folded into the default again.
	unset := lossy()
	withDefault, err := Run(unset, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	explicit := lossy()
	explicit.Faults.PageRetries = ExplicitZero
	withZero, err := Run(explicit, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if withDefault.DroppedCalls != 0 {
		t.Errorf("default retry budget dropped %d calls", withDefault.DroppedCalls)
	}
	if withZero.DroppedCalls == 0 {
		t.Error("explicit zero retry budget dropped no calls: sentinel ignored")
	}

	// An explicitly zero ack timeout is fine while updates are
	// fire-and-forget, and rejected once the acked exchange needs a
	// timer.
	fire := lossy()
	fire.Faults.AckTimeout = ExplicitZero
	if _, err := Run(fire, 100); err != nil {
		t.Errorf("explicit zero ack timeout without retries rejected: %v", err)
	}
	acked := lossy()
	acked.Faults.AckTimeout = ExplicitZero
	acked.Faults.UpdateRetries = 2
	if _, err := Run(acked, 100); err == nil {
		t.Error("explicit zero ack timeout with retries accepted")
	} else if !strings.Contains(err.Error(), "ack timeout") {
		t.Errorf("error %q does not mention the ack timeout", err)
	}
}
