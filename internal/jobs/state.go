package jobs

import "fmt"

// State is a job's lifecycle state. Jobs move strictly along
//
//	queued → running → done | failed
//	queued | running → cancelled
//	running → queued   (crash recovery only)
//
// and never leave a terminal state; Manager enforces the transition
// relation (CanTransition) on every change, so an illegal move is a
// programming error that surfaces immediately rather than a silently
// corrupted job record. The one backward edge, running → queued, is
// written during journal replay for jobs a crash interrupted mid-run:
// the job re-enters the queue (resuming from its last persisted
// checkpoint when one exists) rather than being lost.
type State string

const (
	// StateQueued: accepted into the bounded FIFO queue, not yet picked
	// up by a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is simulating the job.
	StateRunning State = "running"
	// StateDone: the run completed and the final report is available.
	StateDone State = "done"
	// StateFailed: the run errored (invalid deep configuration, engine
	// failure, or an exceeded per-job deadline).
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client or by service shutdown,
	// either before running or mid-run.
	StateCancelled State = "cancelled"
)

// Valid reports whether s is one of the five lifecycle states.
func (s State) Valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Terminal reports whether s is an end state: no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// States lists every lifecycle state in progression order, for metrics
// exporters that want a stable iteration order.
func States() []State {
	return []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
}

// CanTransition reports whether a job may move from one state to
// another.
func CanTransition(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateRunning || to == StateCancelled
	case StateRunning:
		return to == StateDone || to == StateFailed || to == StateCancelled ||
			to == StateQueued // crash recovery: an interrupted run re-queues
	default:
		return false
	}
}

// transition applies a checked state change to the job; the caller must
// hold the manager's lock. It panics on an illegal move — the state
// machine is entirely service-internal, so a bad transition is a bug,
// never bad input.
func (j *job) transition(to State) {
	if !CanTransition(j.state, to) {
		panic(fmt.Sprintf("jobs: illegal transition %s → %s for %s", j.state, to, j.id))
	}
	j.state = to
	if to.Terminal() {
		j.settle()
	}
}

// closedDone is the done channel every terminal job shares.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// settle releases what only a live job needs, once the job is terminal:
// its done channel closes (waiters hold their own reference) and is
// swapped for the shared closed one, and its progress counters go.
// A service keeps every job it ever ran, so this is per-job residency.
func (j *job) settle() {
	close(j.done)
	j.done = closedDone
	j.progress = nil
}
