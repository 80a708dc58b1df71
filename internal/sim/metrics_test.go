package sim

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// shardMetrics builds a plausible one-shard Metrics for terminals with the
// given global ids: each terminal contributes one update, one call with a
// one-cycle delay, and two polled cells per call.
func shardMetrics(slots int64, ids ...int) *Metrics {
	m := &Metrics{
		Slots:          slots,
		Terminals:      len(ids),
		ThresholdSlots: make(map[int]int64),
		costs:          core.Costs{Update: 100, Poll: 10},
	}
	for _, id := range ids {
		m.PerTerminal = append(m.PerTerminal, TerminalStats{ID: id, Updates: 1, Calls: 1, PolledCells: 2, FinalThreshold: 3})
		m.Delay.Add(1)
		m.Updates++
		m.Calls++
		m.PolledCells += 2
		m.Events += 4
		m.ThresholdSlots[3] += slots
	}
	m.recompute()
	return m
}

// faultShardMetrics is shardMetrics with every fault-subsystem counter set
// to one per terminal and one recovery episode of two slots each.
func faultShardMetrics(slots int64, ids ...int) *Metrics {
	m := shardMetrics(slots, ids...)
	m.Recovery = stats.NewMoments(SlotTicks)
	for range ids {
		m.Recovery.Add(2 * SlotTicks)
	}
	n := int64(len(ids))
	m.LostUpdates, m.LostPolls, m.LostReplies = n, n, n
	m.Retransmissions, m.Acks, m.AckBytes = n, n, n
	m.RePolls, m.DroppedCalls, m.OutageDeferred = n, n, n
	m.recompute()
	return m
}

func TestMetricsMerge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		into   *Metrics
		merge  []*Metrics
		verify func(t *testing.T, m *Metrics)
	}{
		{
			name:  "empty merge",
			into:  &Metrics{},
			merge: nil,
			verify: func(t *testing.T, m *Metrics) {
				if !reflect.DeepEqual(m, &Metrics{}) {
					t.Errorf("zero metrics changed: %+v", m)
				}
			},
		},
		{
			name:  "nil shard is a no-op",
			into:  shardMetrics(50, 0, 1),
			merge: []*Metrics{nil},
			verify: func(t *testing.T, m *Metrics) {
				if !reflect.DeepEqual(m, shardMetrics(50, 0, 1)) {
					t.Errorf("nil merge changed the receiver: %+v", m)
				}
			},
		},
		{
			name:  "single shard into empty",
			into:  &Metrics{},
			merge: []*Metrics{shardMetrics(50, 0, 1, 2)},
			verify: func(t *testing.T, m *Metrics) {
				want := shardMetrics(50, 0, 1, 2)
				if m.Slots != want.Slots || m.Terminals != want.Terminals ||
					m.Updates != want.Updates || m.Events != want.Events {
					t.Errorf("merged %+v, want %+v", m, want)
				}
				if m.UpdateCost != want.UpdateCost || m.TotalCost != want.TotalCost {
					t.Errorf("costs (%v, %v), want (%v, %v)",
						m.UpdateCost, m.TotalCost, want.UpdateCost, want.TotalCost)
				}
				if m.Delay.N() != 3 || m.Delay.Mean() != 1 {
					t.Errorf("delay %v", m.Delay)
				}
			},
		},
		{
			name:  "overlapping ThresholdSlots keys",
			into:  &Metrics{},
			merge: []*Metrics{shardMetrics(50, 0), shardMetrics(50, 1, 2)},
			verify: func(t *testing.T, m *Metrics) {
				// Both shards operate at threshold 3: keys must add, not
				// overwrite.
				if got := m.ThresholdSlots[3]; got != 150 {
					t.Errorf("ThresholdSlots[3] = %d, want 150", got)
				}
				if len(m.ThresholdSlots) != 1 {
					t.Errorf("histogram %v, want a single key", m.ThresholdSlots)
				}
			},
		},
		{
			name:  "distinct ThresholdSlots keys are kept",
			into:  shardMetrics(50, 0),
			merge: []*Metrics{{ThresholdSlots: map[int]int64{7: 9}}},
			verify: func(t *testing.T, m *Metrics) {
				if m.ThresholdSlots[3] != 50 || m.ThresholdSlots[7] != 9 {
					t.Errorf("histogram %v", m.ThresholdSlots)
				}
			},
		},
		{
			name:  "PerTerminal sorted by global id",
			into:  &Metrics{},
			merge: []*Metrics{shardMetrics(50, 4, 5), shardMetrics(50, 0, 1), shardMetrics(50, 2, 3)},
			verify: func(t *testing.T, m *Metrics) {
				if len(m.PerTerminal) != 6 {
					t.Fatalf("%d records", len(m.PerTerminal))
				}
				for i, ts := range m.PerTerminal {
					if ts.ID != i {
						t.Errorf("record %d has id %d", i, ts.ID)
					}
				}
			},
		},
		{
			name: "fault counters and recovery latency reduce across shards",
			into: &Metrics{},
			merge: []*Metrics{
				faultShardMetrics(50, 0, 1),
				faultShardMetrics(50, 2),
			},
			verify: func(t *testing.T, m *Metrics) {
				for name, got := range map[string]int64{
					"LostUpdates":     m.LostUpdates,
					"LostPolls":       m.LostPolls,
					"LostReplies":     m.LostReplies,
					"Retransmissions": m.Retransmissions,
					"Acks":            m.Acks,
					"AckBytes":        m.AckBytes,
					"RePolls":         m.RePolls,
					"DroppedCalls":    m.DroppedCalls,
					"OutageDeferred":  m.OutageDeferred,
				} {
					if got != 3 {
						t.Errorf("%s = %d, want 3", name, got)
					}
				}
				// One 2-slot recovery episode per terminal, summed
				// across the shards.
				if m.Recovery.N() != 3 || m.Recovery.Mean() != 2 {
					t.Errorf("recovery %v, want 3 samples of mean 2", m.Recovery)
				}
			},
		},
		{
			name:  "counters and costs reduce across shards",
			into:  &Metrics{},
			merge: []*Metrics{shardMetrics(50, 0, 1), shardMetrics(50, 2)},
			verify: func(t *testing.T, m *Metrics) {
				if m.Terminals != 3 || m.Updates != 3 || m.PolledCells != 6 || m.Events != 12 {
					t.Errorf("counters %+v", m)
				}
				// 3 updates × U=100 over 50 slots × 3 terminals = 2 per
				// slot per terminal; 6 cells × V=10 → 0.4.
				if m.UpdateCost != 2 || m.PagingCost != 0.4 || m.TotalCost != 2.4 {
					t.Errorf("costs (%v, %v, %v)", m.UpdateCost, m.PagingCost, m.TotalCost)
				}
				if m.Delay.N() != 3 {
					t.Errorf("delay samples %d", m.Delay.N())
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range tc.merge {
				tc.into.Merge(o)
			}
			tc.verify(t, tc.into)
		})
	}
}

// TestMetricsMergeGroupingInvariant checks the reduction is grouping- and
// order-independent: folding shards {0,1}+{2,3}, {0}+{1,2}+{3} and
// {3}+{1,2}+{0} must give bit-identical aggregates, because every merged
// aggregate is an exact integer sum.
func TestMetricsMergeGroupingInvariant(t *testing.T) {
	delays := map[int][]int64{
		0: {1, 2, 3}, 1: {2}, 2: {1, 1, 2}, 3: {3, 1},
	}
	build := func(ids ...int) *Metrics {
		m := &Metrics{Slots: 10, Terminals: len(ids), ThresholdSlots: map[int]int64{}}
		for _, id := range ids {
			m.PerTerminal = append(m.PerTerminal, TerminalStats{ID: id})
			for _, d := range delays[id] {
				m.Delay.Add(d)
			}
		}
		m.recompute()
		return m
	}
	var a Metrics
	a.Merge(build(0, 1))
	a.Merge(build(2, 3))
	var b Metrics
	b.Merge(build(0))
	b.Merge(build(1, 2))
	b.Merge(build(3))
	var c Metrics
	c.Merge(build(3))
	c.Merge(build(1, 2))
	c.Merge(build(0))
	if !reflect.DeepEqual(&a, &b) || !reflect.DeepEqual(&a, &c) {
		t.Errorf("grouping changed the merged metrics:\n%+v\n%+v\n%+v", a, b, c)
	}
	if a.Delay.N() != 9 {
		t.Errorf("delay samples %d, want 9", a.Delay.N())
	}
}

// TestMergeMismatchedSlotsPanics: merging metrics simulated over
// different slot counts would mix incompatible per-slot denominators, so
// Merge rejects it loudly. A zero Slots on either side still means "not
// yet set" and adopts the other.
func TestMergeMismatchedSlotsPanics(t *testing.T) {
	a := &Metrics{Slots: 1_000, Terminals: 2}
	b := &Metrics{Slots: 2_000, Terminals: 2}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merge over mismatched slot counts accepted")
			}
		}()
		a.Merge(b)
	}()

	// Zero receiver adopts; zero argument folds in.
	var zero Metrics
	zero.Merge(&Metrics{Slots: 500, Terminals: 1})
	if zero.Slots != 500 {
		t.Errorf("zero receiver has slots %d, want 500", zero.Slots)
	}
	zero.Merge(&Metrics{Terminals: 1})
	if zero.Slots != 500 || zero.Terminals != 2 {
		t.Errorf("zero-slot argument mishandled: %+v", zero)
	}
}
