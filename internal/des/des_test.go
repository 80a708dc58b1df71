package des

import (
	"slices"
	"sort"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	if n := s.Drain(); n != 3 {
		t.Fatalf("drained %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Errorf("clock = %d", s.Now())
	}
}

func TestFIFOAmongSameTime(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var s Scheduler
	var fired []Time
	s.At(10, func() {
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Drain()
	if len(fired) != 1 || fired[0] != 15 {
		t.Errorf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i*10, func() { count++ })
	}
	if n := s.RunUntil(50); n != 5 {
		t.Errorf("dispatched %d, want 5", n)
	}
	if count != 5 {
		t.Errorf("count = %d", count)
	}
	if s.Now() != 50 {
		t.Errorf("clock = %d, want 50", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("pending = %d", s.Pending())
	}
	// Events scheduled inside the window are picked up too.
	s.At(55, func() {
		count += 10
		s.After(1, func() { count += 100 })
	})
	s.RunUntil(60)
	// 5 prior + the pre-scheduled t=60 event + 10 (t=55) + 100 (t=56).
	if count != 116 {
		t.Errorf("count = %d, want 116", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var s Scheduler
	s.RunUntil(99)
	if s.Now() != 99 {
		t.Errorf("clock = %d", s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Scheduler
	s.At(10, func() {})
	s.Drain()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5, func() {})
}

func TestNilEventPanics(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Error("nil event did not panic")
		}
	}()
	s.At(1, nil)
}

func TestProcessedCounter(t *testing.T) {
	var s Scheduler
	for i := 0; i < 7; i++ {
		s.At(Time(i), func() {})
	}
	s.Drain()
	if s.Processed() != 7 {
		t.Errorf("Processed = %d", s.Processed())
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestRunBeforeStopsAtMark(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(10, func() { order = append(order, 1) }) // before t: runs
	s.At(20, func() { order = append(order, 2) }) // at t, stamped before mark: runs
	mark := s.SeqMark()
	s.At(20, func() { order = append(order, 3) }) // at t, stamped after mark: held
	s.At(30, func() { order = append(order, 4) }) // past t: held

	if n := s.RunBefore(20, mark); n != 2 {
		t.Fatalf("dispatched %d events, want 2", n)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if s.Now() != 20 {
		t.Errorf("clock = %d, want 20 (last dispatched event)", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want the two held events", s.Pending())
	}
	// The held boundary event is released by a later mark at the same time.
	if n := s.RunBefore(21, s.SeqMark()); n != 1 {
		t.Errorf("release dispatched %d events, want 1", n)
	}
	if len(order) != 3 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

// TestRunBeforeFollowsRescheduling pins that events scheduled during the
// run are themselves dispatched when they precede the point — the paging
// chains the columnar engine drains within a slot are exactly such cascades.
func TestRunBeforeFollowsRescheduling(t *testing.T) {
	var s Scheduler
	hits := 0
	var chase func()
	chase = func() {
		hits++
		if hits < 5 {
			s.After(1, chase)
		}
	}
	s.At(0, chase)
	mark := s.SeqMark()
	s.At(10, func() { t.Error("event at the point, stamped after the mark, must not run") })
	if n := s.RunBefore(10, mark); n != 5 {
		t.Errorf("dispatched %d events, want the 5-link chain", n)
	}
}

func TestAdvanceTo(t *testing.T) {
	var s Scheduler
	s.AdvanceTo(40)
	if s.Now() != 40 {
		t.Errorf("clock = %d, want 40", s.Now())
	}
	s.AdvanceTo(10) // never moves backwards
	if s.Now() != 40 {
		t.Errorf("clock = %d after backwards advance, want 40", s.Now())
	}
	// Advancing onto a pending event's exact time is fine: it has not
	// been skipped, only reached.
	s.At(50, func() {})
	s.AdvanceTo(50)
	if s.Now() != 50 {
		t.Errorf("clock = %d, want 50", s.Now())
	}
}

func TestAdvanceToPastPendingPanics(t *testing.T) {
	var s Scheduler
	s.At(10, func() {})
	defer func() {
		if recover() == nil {
			t.Error("advancing past a pending event did not panic")
		}
	}()
	s.AdvanceTo(11)
}

func TestSeqMarkGrowsWithScheduling(t *testing.T) {
	var s Scheduler
	m0 := s.SeqMark()
	s.At(1, func() {})
	if m1 := s.SeqMark(); m1 <= m0 {
		t.Errorf("mark did not grow: %d then %d", m0, m1)
	}
	s.Drain()
	if m2 := s.SeqMark(); m2 != s.SeqMark() {
		t.Error("mark changed without scheduling")
	}
}

func TestSelfPerpetuatingChainWithRunUntil(t *testing.T) {
	var s Scheduler
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		s.After(1, tick)
	}
	s.At(0, tick)
	s.RunUntil(100)
	if ticks != 101 { // t = 0..100 inclusive
		t.Errorf("ticks = %d", ticks)
	}
}

func TestCheckpointRestoreReplaysTies(t *testing.T) {
	// Two tagged events at the same time: checkpoint/restore must keep
	// their original insertion stamps, so the FIFO tie-break replays.
	var s Scheduler
	var order []uint64
	s.AfterTag(5, 1, func() { order = append(order, 1) })
	s.AfterTag(5, 2, func() { order = append(order, 2) })
	now, seq, ran, pending := s.Checkpoint(nil)
	if len(pending) != 2 || pending[0].Tag != 1 || pending[1].Tag != 2 {
		t.Fatalf("pending = %+v", pending)
	}

	var r Scheduler
	r.Restore(now, seq, ran, pending, func(tag uint64) func() {
		return func() { order = append(order, 10+tag) }
	})
	if r.Now() != now || r.Pending() != 2 || r.Processed() != ran {
		t.Fatalf("restored state: now=%d pending=%d ran=%d", r.Now(), r.Pending(), r.Processed())
	}
	r.Drain()
	if len(order) != 2 || order[0] != 11 || order[1] != 12 {
		t.Errorf("dispatch order = %v, want [11 12]", order)
	}
}

// TestCheckpointPendingOrder pins the export order: pending events in
// (time, stamp) order whatever the heap holds, with ties on the time
// broken by insertion stamp. The export appends after what the caller's
// buffer already holds, leaves that prefix alone, and allocates nothing
// when the buffer has room.
func TestCheckpointPendingOrder(t *testing.T) {
	var s Scheduler
	s.At(0, func() {})
	s.Step() // advance the stamp counter past an untagged, dispatched event
	ats := []Time{9, 4, 9, 2, 4, 4, 7, 2, 9}
	for i, at := range ats {
		s.AfterTag(at, uint64(100+i), func() {})
	}
	prefix := PendingEvent{At: 1, Seq: 1, Tag: 1}
	buf := make([]PendingEvent, 1, 1+len(ats))
	buf[0] = prefix
	now, seq, ran, got := s.Checkpoint(buf)
	if now != 0 || seq != uint64(1+len(ats)) || ran != 1 {
		t.Errorf("now, seq, ran = %d, %d, %d", now, seq, ran)
	}
	if len(got) != 1+len(ats) || got[0] != prefix || &got[0] != &buf[0] {
		t.Fatalf("export did not append in place after the prefix: %+v", got)
	}
	// The reference order: by due time, ties by insertion stamp. Event
	// i was stamped 1+i.
	want := make([]PendingEvent, len(ats))
	for i, at := range ats {
		want[i] = PendingEvent{At: at, Seq: uint64(1 + i), Tag: uint64(100 + i)}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
	if !slices.Equal(got[1:], want) {
		t.Errorf("pending = %+v\nwant      %+v", got[1:], want)
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _, _, buf = s.Checkpoint(buf[:0]) }); allocs != 0 {
		t.Errorf("export into a buffer with room allocated %v times", allocs)
	}
}

func TestCheckpointPanicsOnUntaggedPending(t *testing.T) {
	var s Scheduler
	s.After(1, func() {})
	defer func() {
		if recover() == nil {
			t.Error("checkpoint with an untagged pending event should panic")
		}
	}()
	s.Checkpoint(nil)
}

func TestAfterTagRejectsZeroTag(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Error("AfterTag with tag 0 should panic")
		}
	}()
	s.AfterTag(1, 0, func() {})
}

func TestInsertAtLosesOriginalTies(t *testing.T) {
	// An event re-created with a pre-checkpoint stamp must dispatch
	// before same-time events that were scheduled after it originally:
	// stamp 0 was claimed before the tagged event's stamp 1, so after a
	// restore that re-inserts it, it still wins the time-3 tie.
	var order []int
	var r Scheduler
	r.Restore(0, 2, 1, []PendingEvent{{At: 3, Seq: 1, Tag: 7}},
		func(uint64) func() {
			return func() { order = append(order, 2) }
		})
	r.InsertAt(3, 0, func() { order = append(order, 1) })
	r.Drain()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("dispatch order = %v, want [1 2]", order)
	}
}

func TestRestoreRejectsStampAboveCounter(t *testing.T) {
	var r Scheduler
	defer func() {
		if recover() == nil {
			t.Error("restoring an event stamped at the counter should panic")
		}
	}()
	r.Restore(0, 1, 0, []PendingEvent{{At: 1, Seq: 1, Tag: 3}},
		func(uint64) func() { return func() {} })
}
