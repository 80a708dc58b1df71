package telemetry

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
)

// buildShardFrame makes a shard frame for terminals with the given delay
// samples (one slice per terminal), each of whose samples also closed a
// recovery episode of that many slots.
func buildShardFrame(slot int64, updates int64, delays ...[]int64) ShardFrame {
	sf := ShardFrame{
		Slot:     slot,
		Counters: Counters{Updates: updates, Calls: int64(len(delays))},
		Recovery: stats.NewMoments(2048),
	}
	for _, ds := range delays {
		for _, d := range ds {
			sf.Delay.Add(d)
			sf.Recovery.Add(d * 2048)
		}
	}
	return sf
}

// TestMergeFramesShardingInvariant is the package's core contract: a
// population folded as one shard and as several produces bit-identical
// merged frames, whatever order the shard series are passed in.
func TestMergeFramesShardingInvariant(t *testing.T) {
	perTerm := [][]int64{{1, 2}, {3}, {1, 1, 4}, {2, 2}}
	single := [][]ShardFrame{{buildShardFrame(10, 8, perTerm...)}}
	split := [][]ShardFrame{
		{buildShardFrame(10, 5, perTerm[:2]...)},
		{buildShardFrame(10, 3, perTerm[2:]...)},
	}
	reversed := [][]ShardFrame{split[1], split[0]}

	want := MergeFrames(single, 4, 100, 10)
	for name, shards := range map[string][][]ShardFrame{"split": split, "reversed": reversed} {
		got := MergeFrames(shards, 4, 100, 10)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: merged frames diverged\nwant %+v\ngot  %+v", name, want, got)
		}
	}
	f := want[0]
	if f.Updates != 8 || f.Calls != 4 {
		t.Errorf("counters did not sum: %+v", f)
	}
	if f.Delay.N != 8 || f.Delay.Mean != 2 || f.Recovery.Mean != 2 || f.Recovery.Max != 4 {
		t.Errorf("delay %+v, recovery %+v: want 8 samples of mean 2 each", f.Delay, f.Recovery)
	}
	// 8 updates × U=100 over 10 slots × 4 terminals = 20 per slot per
	// terminal.
	if f.UpdateCost != 20 || f.TotalCost != f.UpdateCost+f.PagingCost {
		t.Errorf("costs %+v", f)
	}
	// Events: no sub-slot events reported, slot sweeps added back once.
	if f.Events != 10 {
		t.Errorf("events = %d, want 10 slot sweeps", f.Events)
	}
}

func TestMergeFramesEmptyAndMisaligned(t *testing.T) {
	if got := MergeFrames(nil, 4, 1, 1); got != nil {
		t.Errorf("nil shards produced %v", got)
	}
	if got := MergeFrames([][]ShardFrame{{}}, 4, 1, 1); got != nil {
		t.Errorf("empty series produced %v", got)
	}
	for name, shards := range map[string][][]ShardFrame{
		"length mismatch": {
			{buildShardFrame(10, 1, []int64{1})},
			{buildShardFrame(10, 1, []int64{1}), buildShardFrame(20, 2, []int64{1})},
		},
		"slot mismatch": {
			{buildShardFrame(10, 1, []int64{1})},
			{buildShardFrame(20, 1, []int64{1})},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			MergeFrames(shards, 2, 1, 1)
		}()
	}
}

func TestSummarize(t *testing.T) {
	var a stats.Moments
	if got := Summarize(&a); got != (Summary{}) {
		t.Errorf("empty summary %+v", got)
	}
	for _, x := range []int64{-2, 4, 1} {
		a.Add(x)
	}
	got := Summarize(&a)
	if got.N != 3 || got.Mean != 1 || got.Min != -2 || got.Max != 4 || got.StdDev != 3 {
		t.Errorf("summary %+v", got)
	}
	// Recovery latency: samples in ticks, summarized in slots.
	r := stats.NewMoments(2048)
	for _, x := range []int64{1024, 3072} {
		r.Add(x)
	}
	if got := Summarize(&r); got.Mean != 1 || got.Min != 0.5 || got.Max != 1.5 || got.StdDev != 0x1.6a09e667f3bcdp-01 {
		t.Errorf("recovery summary %+v", got)
	}
}

func TestProgressLifecycle(t *testing.T) {
	var nilProg *Progress
	nilProg.Set(0, 1, 1, 1) // nil receiver is a no-op
	if got := nilProg.Snapshot(); got != nil {
		t.Errorf("nil progress snapshot %v", got)
	}

	p := &Progress{}
	p.Set(0, 5, 5, 5) // before Init: dropped
	if got := p.Snapshot(); got != nil {
		t.Errorf("pre-Init snapshot %v", got)
	}
	p.Init(2)
	p.Set(0, 100, 800, 250)
	p.Set(1, 90, 720, 200)
	p.Set(7, 1, 1, 1)  // out of range: dropped
	p.Set(-1, 1, 1, 1) // out of range: dropped
	want := []ShardStatus{
		{Shard: 0, Slot: 100, Work: 800, Events: 250},
		{Shard: 1, Slot: 90, Work: 720, Events: 200},
	}
	if got := p.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot %+v, want %+v", got, want)
	}
}

// TestProgressConcurrent hammers Set and Snapshot from racing goroutines;
// meaningful under -race.
func TestProgressConcurrent(t *testing.T) {
	p := &Progress{}
	p.Init(4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				p.Set(shard, i, 8*i, uint64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, s := range p.Snapshot() {
				if s.Slot < 0 || s.Slot > 1000 {
					t.Errorf("torn read: %+v", s)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}
