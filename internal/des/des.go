// Package des is a minimal discrete-event simulation kernel: a scheduler
// with a binary-heap event queue, deterministic FIFO ordering among
// same-time events, and a monotonic virtual clock. It underlies the PCN
// system simulator in package sim.
package des

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
)

// Time is a virtual timestamp. Its unit is defined by the simulation that
// uses the scheduler (package sim uses 1 slot = SlotTicks ticks so that
// polling cycles can be scheduled within a slot).
type Time uint64

// Scheduler dispatches scheduled events in (time, insertion-order) order.
// The zero value is ready to use. Scheduler is not safe for concurrent use;
// discrete-event simulations are inherently sequential.
type Scheduler struct {
	q   eventQueue
	now Time
	seq uint64
	ran uint64
}

type event struct {
	at  Time
	seq uint64
	tag uint64
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.q) }

// Processed returns the number of events dispatched so far.
func (s *Scheduler) Processed() uint64 { return s.ran }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a simulation bug.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %d before now %d", t, s.now))
	}
	if fn == nil {
		panic("des: nil event function")
	}
	heap.Push(&s.q, event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn delay ticks from now.
func (s *Scheduler) After(delay Time, fn func()) {
	s.At(s.now+delay, fn)
}

// AfterTag is After with a caller-supplied non-zero tag attached to the
// event. Tags exist for checkpointing: closures cannot be serialized, so
// an event that may be pending when a simulation state snapshot is taken
// must carry enough identity (packed into the tag by the caller) for
// Restore to rebuild its closure. Untagged events (tag 0) cannot cross a
// checkpoint; Checkpoint panics if one is pending.
func (s *Scheduler) AfterTag(delay Time, tag uint64, fn func()) {
	if tag == 0 {
		panic("des: AfterTag with zero tag")
	}
	t := s.now + delay
	if fn == nil {
		panic("des: nil event function")
	}
	heap.Push(&s.q, event{at: t, seq: s.seq, tag: tag, fn: fn})
	s.seq++
}

// PendingEvent is one queued event in serializable form: its due time,
// its insertion stamp (the FIFO tie-break among same-time events) and the
// caller-assigned tag identifying its closure.
type PendingEvent struct {
	At  Time
	Seq uint64
	Tag uint64
}

// Checkpoint exports the scheduler's complete state: the clock, the
// insertion-stamp counter, the dispatched-event count, and every pending
// event, appended to pending in (time, stamp) order; the extended slice
// is returned, so a caller that exports many schedulers can reuse one
// buffer. Every pending event must have been scheduled with AfterTag —
// an untagged pending event has no serializable identity, so its
// presence is a checkpoint-placement bug and panics.
func (s *Scheduler) Checkpoint(pending []PendingEvent) (now Time, seq, ran uint64, _ []PendingEvent) {
	first := len(pending)
	for _, e := range s.q {
		if e.tag == 0 {
			panic(fmt.Sprintf("des: checkpoint with untagged pending event at %d", e.at))
		}
		pending = append(pending, PendingEvent{At: e.at, Seq: e.seq, Tag: e.tag})
	}
	slices.SortFunc(pending[first:], func(a, b PendingEvent) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return s.now, s.seq, s.ran, pending
}

// Restore reinitializes s (which must be the zero value) to a state
// previously exported by Checkpoint: the clock, counters and pending
// events are reinstated exactly, with bind mapping each pending event's
// tag back to its closure. Because the original insertion stamps are
// preserved, every (time, stamp) comparison — heap ordering, RunBefore
// classification against a SeqMark — behaves identically to the
// scheduler the checkpoint was taken from.
func (s *Scheduler) Restore(now Time, seq, ran uint64, pending []PendingEvent, bind func(tag uint64) func()) {
	if len(s.q) != 0 || s.seq != 0 || s.ran != 0 {
		panic("des: restoring a non-zero scheduler")
	}
	s.now, s.seq, s.ran = now, seq, ran
	for _, p := range pending {
		fn := bind(p.Tag)
		if fn == nil {
			panic(fmt.Sprintf("des: restore bind returned nil for tag %#x", p.Tag))
		}
		if p.Seq >= seq {
			panic(fmt.Sprintf("des: restored event stamp %d not below counter %d", p.Seq, seq))
		}
		heap.Push(&s.q, event{at: p.At, seq: p.Seq, tag: p.Tag, fn: fn})
	}
}

// InsertAt schedules fn at absolute time t with an explicit insertion
// stamp, for resume paths that re-create an event whose stamp was
// assigned before the checkpoint (a restored run's next periodic event
// must keep losing exactly the ties it lost originally). The stamp must
// lie below the current counter — InsertAt never mints new stamps; use At
// for that.
func (s *Scheduler) InsertAt(t Time, seq uint64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: inserting at %d before now %d", t, s.now))
	}
	if seq >= s.seq {
		panic(fmt.Sprintf("des: inserted stamp %d not below counter %d", seq, s.seq))
	}
	if fn == nil {
		panic("des: nil event function")
	}
	heap.Push(&s.q, event{at: t, seq: seq, fn: fn})
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports whether an event was dispatched.
func (s *Scheduler) Step() bool {
	if len(s.q) == 0 {
		return false
	}
	e := heap.Pop(&s.q).(event)
	s.now = e.at
	s.ran++
	e.fn()
	return true
}

// SeqMark returns the insertion stamp the next scheduled event will
// receive. Together with RunBefore it lets a caller replay the FIFO
// tie-break among same-time events without keeping those events on this
// scheduler: an event scheduled after a mark loses ties against the mark.
func (s *Scheduler) SeqMark() uint64 { return s.seq }

// RunBefore dispatches every queued event that precedes the scheduling
// point (t, seq): events with timestamps strictly before t, plus events at
// exactly t whose insertion stamp is below seq. Events scheduled during
// the run are dispatched too if they precede the point. The clock advances
// to each dispatched event's time but never past it; it is not advanced to
// t (use AdvanceTo). It returns the number of events dispatched.
func (s *Scheduler) RunBefore(t Time, seq uint64) uint64 {
	start := s.ran
	for len(s.q) > 0 && (s.q[0].at < t || (s.q[0].at == t && s.q[0].seq < seq)) {
		s.Step()
	}
	return s.ran - start
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// Advancing past a pending event would silently reorder the simulation, so
// that panics: the caller must RunBefore (or otherwise dispatch) first.
func (s *Scheduler) AdvanceTo(t Time) {
	if len(s.q) > 0 && s.q[0].at < t {
		panic(fmt.Sprintf("des: advancing to %d past pending event at %d", t, s.q[0].at))
	}
	if s.now < t {
		s.now = t
	}
}

// RunUntil dispatches events with timestamps ≤ deadline (inclusive) and
// advances the clock to deadline. Events scheduled during the run are
// dispatched too if they fall within the deadline. It returns the number
// of events dispatched.
func (s *Scheduler) RunUntil(deadline Time) uint64 {
	start := s.ran
	for len(s.q) > 0 && s.q[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.ran - start
}

// Drain dispatches every remaining event. It returns the number of events
// dispatched. Use with care: self-perpetuating event chains never drain.
func (s *Scheduler) Drain() uint64 {
	start := s.ran
	for s.Step() {
	}
	return s.ran - start
}
