// Package jobs is the job-service core behind pcnserve: JSON job
// descriptors (Spec) that map one-to-one onto engine configurations, a
// strict lifecycle state machine (State), and a Manager that runs jobs
// from a bounded FIFO queue on a fixed worker pool with per-job
// cancellation and deadlines.
//
// Determinism contract: the Manager adds nothing to a run but a
// context and a telemetry.Progress — neither perturbs the simulation —
// so a job's final report is bit-identical to
// locman.SimulateNetworkSharded invoked directly with the Spec's
// configuration, byte for byte in its JSON form (TestManagerDeterminism
// asserts this against the engine).
package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/results"
	"repro/internal/telemetry"
	"repro/locman"
)

// Submission failure modes the API layer maps onto HTTP statuses.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity — backpressure, not unbounded growth (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown rejects submissions after Shutdown has begun
	// (HTTP 503).
	ErrShuttingDown = errors.New("jobs: shutting down")
	// ErrRecovering rejects submissions while the journal is still being
	// replayed after a restart (HTTP 503 — temporary, unlike shutdown).
	ErrRecovering = errors.New("jobs: recovering")
	// ErrNotFound reports an unknown job id (HTTP 404).
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotDone reports a result request for a job that has not
	// completed successfully (HTTP 409).
	ErrNotDone = errors.New("jobs: job has no result")
	// ErrResultUnreadable reports a done job whose journaled report could
	// not be read back intact: the file is gone, or the line fails its
	// checksum or is not the job's result record (HTTP 500).
	ErrResultUnreadable = errors.New("jobs: journaled result unreadable")
)

// Options configures a Manager; the zero value selects the defaults.
type Options struct {
	// QueueDepth bounds the FIFO submission queue; once QueueDepth jobs
	// are waiting, Submit rejects with ErrQueueFull. 0 means 64.
	QueueDepth int
	// Workers is the worker-pool size: how many jobs simulate
	// concurrently (each job additionally parallelizes internally across
	// its shards). 0 means GOMAXPROCS.
	Workers int
	// Clock stamps job lifecycle times; nil means time.Now. Injectable
	// for tests — it never feeds the simulation, which is seeded purely
	// from the Spec.
	Clock func() time.Time
	// DataDir enables durability: the append-only job journal and the
	// per-job checkpoint files live beneath it, and New defers the worker
	// pool until Recover has replayed the journal. Empty keeps the
	// manager fully in-memory, behaving exactly as before.
	DataDir string
	// CheckpointEvery is the slot cadence at which running jobs persist
	// resumable checkpoints (only meaningful with DataDir). 0 disables
	// checkpoint capture; interrupted jobs then restart from slot 0 on
	// recovery — the result is byte-identical either way, resumption
	// only saves the already-simulated slots.
	CheckpointEvery int64
	// Results, when non-nil, receives every done job flattened into the
	// analytics table (ResultRow): live on the done edge, and backfilled
	// from the journaled result bytes during Recover — so after recovery
	// the table holds exactly the done jobs, however the process got
	// there. Ingesting writes no file; the manager calls Results.Flush
	// once in Shutdown, after the workers unwind, and in Recover when
	// backfill added rows.
	Results *results.Store
	// Runner, when non-nil, executes jobs instead of the in-process
	// engines — the distributed coordinator path. Checkpoint capture and
	// resume (CheckpointEvery) do not apply to runner-executed jobs; an
	// interrupted job is simply re-dispatched from slot 0 on recovery,
	// with a byte-identical result either way.
	Runner Runner
}

// job is the Manager's internal record of one submission. All mutable
// fields are guarded by the Manager's mutex; progress is internally
// atomic and done is closed exactly once by transition.
type job struct {
	id      string
	spec    Spec
	state   State
	errText string

	created  time.Time
	started  time.Time
	finished time.Time

	// progress receives live per-shard counters while the job runs; the
	// engines publish completed terminal-slots directly (ShardStatus.Work).
	// Nil once the job is terminal (settle).
	progress *telemetry.Progress

	// cancel aborts the running simulation; cancelRequested records that
	// a client (or shutdown) asked for it, distinguishing cancellation
	// from an engine failure when the run returns.
	cancel          context.CancelFunc
	cancelRequested bool

	// A done job's final report is the exact byte sequence pcnsim -json
	// would emit for the same run, which is what the byte-identity
	// guarantee is stated over. A journaled job keeps only where its
	// result record lies in the journal — resultLen bytes at resultOff —
	// and Result reads the line back. resultJSON holds the bytes only
	// without a journal, when the result append failed, or transiently
	// while Recover backfills from the replayed records.
	resultJSON           []byte
	resultOff, resultLen int64

	// doneSlots freezes the job's terminal-slot total when it reaches a
	// terminal state.
	doneSlots int64

	// specErr is why a replayed job's spec fails Spec.Validate (Recover);
	// the job then fails at pickup with it instead of running.
	specErr error

	// done closes when the job reaches a terminal state, and is then
	// the shared closedDone (settle).
	done chan struct{}
}

// Manager owns the job table, the bounded queue and the worker pool.
type Manager struct {
	opts Options

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for List
	seq    int64
	closed bool
	busy   int

	queue chan *job

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// Durability state (nil/zero without a DataDir). recovering is true
	// from New until Recover finishes replaying the journal; the
	// counters feed the Prometheus recovery metrics.
	journal       *Journal
	recovering    bool
	replayed      int64 // journal records replayed at boot
	recovered     int64 // jobs re-enqueued by recovery
	resumed       int64 // runs continued from a persisted checkpoint
	ckptWritten   int64 // checkpoint files persisted
	ckptFallbacks int64 // unusable checkpoints that forced a clean run
	journalErrs   int64 // failed journal/checkpoint writes (best-effort)

	// Results-store counters (zero without Options.Results).
	resultsBackfilled int64 // rows rebuilt from the journal at boot
	resultsErrs       int64 // rows that failed to flatten, ingest or persist

	// writingCheckpoint, when set (by tests, before Recover), runs on a
	// job's checkpoint writer once the temp file exists and before the
	// checkpoint is written to it.
	writingCheckpoint func(id string, slot int64)
}

// New starts a Manager. Without a DataDir the worker pool starts
// immediately; with one, the manager boots in the recovering state —
// rejecting submissions with ErrRecovering and running nothing — until
// Recover has replayed the journal.
func New(opts Options) *Manager {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		jobs:       make(map[string]*job),
		queue:      make(chan *job, opts.QueueDepth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	if opts.DataDir == "" {
		m.startWorkers()
	} else {
		m.recovering = true
	}
	return m
}

func (m *Manager) startWorkers() {
	for w := 0; w < m.opts.Workers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
}

// Recovering reports whether the manager is still replaying its journal
// (always false without a DataDir).
func (m *Manager) Recovering() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovering
}

// jobSeq extracts the numeric part of a job id ("j%06d"), so recovery
// can continue the id sequence past every journaled job.
func jobSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Recover opens and replays the journal, rebuilds the job table,
// re-enqueues every job a crash left queued or running, and starts the
// worker pool. It must be called exactly once on a DataDir-configured
// manager before any submission is accepted; without a DataDir it is a
// no-op. Completed jobs come back with their result bytes exactly as
// journaled; interrupted jobs take the recovery edge running → queued
// (itself journaled) and, when a checkpoint file survives, resume
// mid-run rather than starting over. Checkpoint files no re-enqueued
// job will resume from, and temp files of interrupted checkpoint writes,
// are deleted (pruneCheckpoints). If more jobs need re-enqueueing
// than the configured queue depth, the queue is grown to fit — recovery
// never drops acknowledged work to backpressure.
func (m *Manager) Recover() error {
	if m.opts.DataDir == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(m.opts.DataDir, "checkpoints"), 0o755); err != nil {
		return err
	}
	jl, recs, err := OpenJournal(m.journalPath())
	if err != nil {
		return err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		jl.Close()
		return ErrShuttingDown
	}
	m.journal = jl
	m.replayed = int64(len(recs))
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case KindSubmit:
			if _, dup := m.jobs[rec.Job]; dup {
				continue
			}
			j := &job{
				id:       rec.Job,
				spec:     *rec.Spec,
				state:    StateQueued,
				created:  rec.Time,
				progress: &telemetry.Progress{},
				done:     make(chan struct{}),
			}
			m.jobs[rec.Job] = j
			m.order = append(m.order, rec.Job)
			if n := jobSeq(rec.Job); n > m.seq {
				m.seq = n
			}
		case KindState:
			j := m.jobs[rec.Job]
			if j == nil || !CanTransition(j.state, rec.To) {
				continue
			}
			if rec.To == StateDone && j.resultJSON == nil {
				// A done record without its (always-preceding) result
				// record means the journal was damaged between them;
				// leave the job running so it re-queues below.
				continue
			}
			j.state = rec.To
			j.errText = rec.Error
			if rec.To == StateRunning {
				j.started = rec.Time
			} else if rec.To.Terminal() {
				j.finished = rec.Time
			}
		case KindResult:
			if j := m.jobs[rec.Job]; j != nil {
				j.resultJSON = rec.Result
				j.resultOff, j.resultLen = rec.off, rec.n
			}
		}
	}
	// Walk the rebuilt table in submission order: terminal jobs settle
	// (their done channels close), interrupted and never-started jobs
	// re-enter the queue in their original order.
	var pend []*job
	for _, id := range m.order {
		j := m.jobs[id]
		switch j.state {
		case StateRunning:
			j.state = StateQueued
			m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateRunning, To: StateQueued})
			m.recovered++
			pend = append(pend, j)
		case StateQueued:
			m.recovered++
			pend = append(pend, j)
		default:
			if j.state == StateDone {
				j.doneSlots = j.spec.Slots * int64(j.spec.Terminals)
				m.backfillResultLocked(j)
			}
			j.settle()
		}
		// The replayed bytes have served backfill; from here on Result
		// reads them back from the journal. An interrupted job's stale
		// result is superseded when it runs again.
		j.resultJSON = nil
	}
	m.pruneCheckpoints(pend)
	if len(pend) > cap(m.queue) {
		m.queue = make(chan *job, len(pend))
	}
	for _, j := range pend {
		// The journal keeps each spec as it was accepted, and rules can
		// tighten between releases: a spec the current ones refuse
		// fails at pickup with their error rather than running.
		j.specErr = j.spec.Validate()
		m.queue <- j
	}
	m.recovering = false
	m.mu.Unlock()
	// Save the rows backfill added, so the next boot loads them instead
	// of rebuilding them; a no-op when the table file already had them.
	m.flushResults()
	m.startWorkers()
	return nil
}

// pruneCheckpoints deletes what a crash can leave in the checkpoint
// directory: the temp file of a write the crash interrupted, and the
// checkpoint of every job that will not run again — terminal (the crash
// fell between its terminal record and the removal) or unknown to the
// journal. The jobs in pend keep theirs to resume from. Best-effort: a
// file that cannot be listed or removed stays, as before.
func (m *Manager) pruneCheckpoints(pend []*job) {
	keep := make(map[string]bool, len(pend))
	for _, j := range pend {
		keep[j.id+".ckpt"] = true
	}
	dir := filepath.Join(m.opts.DataDir, "checkpoints")
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".ckpt") && !keep[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// journalPath is the journal file beneath the data directory.
func (m *Manager) journalPath() string {
	return filepath.Join(m.opts.DataDir, "journal.ndjson")
}

// flushResults saves the results table to its file (results.Store.Flush;
// a no-op for a memory-only store). Best-effort like every write after
// boot: a failure is counted, and the next recovery backfills from the
// journal whatever rows the file lacks.
func (m *Manager) flushResults() {
	if m.opts.Results == nil {
		return
	}
	if err := m.opts.Results.Flush(); err != nil {
		m.mu.Lock()
		m.resultsErrs++
		m.mu.Unlock()
	}
}

// appendLocked journals one record (stamped with the manager clock)
// when durability is on. Journal failures after boot are counted and
// surfaced through Stats rather than failing the live operation: the
// in-memory state machine stays authoritative for the running process.
// The one exception is Submit, which checks the error — a submission
// that cannot be journaled is rejected, because acknowledging it would
// promise durability the journal cannot honour.
func (m *Manager) appendLocked(rec Record) error {
	if m.journal == nil {
		return nil
	}
	rec.Time = m.opts.Clock().UTC()
	if err := m.journal.Append(rec); err != nil {
		m.journalErrs++
		return err
	}
	return nil
}

// appendRecord journals one record on behalf of a Runner (dispatch and
// lease edges), taking the manager lock the runner does not hold.
// Best-effort like every post-boot append: failures are counted, never
// surfaced.
func (m *Manager) appendRecord(rec Record) {
	m.mu.Lock()
	m.appendLocked(rec)
	m.mu.Unlock()
}

// Submit validates the spec and enqueues a new job, returning its view.
// The queue is the backpressure boundary: a full queue rejects with
// ErrQueueFull immediately rather than blocking the caller or growing
// without bound. A submission refused for a journal error still spends
// its id, so ids may skip; its record may have reached the file, in
// which case the job reappears, queued, after a restart.
func (m *Manager) Submit(spec Spec) (View, error) {
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return View{}, ErrShuttingDown
	}
	if m.recovering {
		return View{}, ErrRecovering
	}
	m.seq++
	j := &job{
		id:       fmt.Sprintf("j%06d", m.seq),
		spec:     spec,
		state:    StateQueued,
		created:  m.opts.Clock(),
		progress: &telemetry.Progress{},
		done:     make(chan struct{}),
	}
	// Only workers drain the queue, so under the lock a observed free
	// slot keeps the send below non-blocking; checking first lets the
	// journal record be durable before the job becomes runnable.
	if len(m.queue) == cap(m.queue) {
		m.seq-- // the rejected submission never existed
		return View{}, ErrQueueFull
	}
	if err := m.appendLocked(Record{Kind: KindSubmit, Job: j.id, Spec: &spec}); err != nil {
		// The id stays spent: the record may have reached the file
		// with only its fsync failing, and a reused id would let this
		// refused spec replay in place of the next accepted job's.
		return View{}, fmt.Errorf("jobs: journaling submission: %w", err)
	}
	m.queue <- j
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return m.viewLocked(j), nil
}

// runJob executes one dequeued job through its full lifecycle.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != StateQueued {
		// Cancelled while waiting in the queue; nothing to run.
		m.mu.Unlock()
		return
	}
	j.transition(StateRunning)
	m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateQueued, To: StateRunning})
	j.started = m.opts.Clock()
	ctx, cancel := context.WithCancel(m.baseCtx)
	if j.spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx,
			time.Duration(j.spec.TimeoutSec*float64(time.Second)))
	}
	j.cancel = cancel
	m.busy++
	spec := j.spec
	prog := j.progress
	runErr := j.specErr
	m.mu.Unlock()
	defer cancel()

	var report *locman.Report
	var raw []byte
	if runErr == nil {
		report, raw, runErr = m.runSpec(ctx, j.id, spec, prog)
	}

	m.mu.Lock()
	m.busy--
	j.finished = m.opts.Clock()
	j.cancel = nil
	switch {
	case runErr == nil:
		j.doneSlots = spec.Slots * int64(spec.Terminals)
		// The result record precedes the done record, so a replayed
		// done-state always finds its bytes already in place. Once the
		// record is durable the journal holds the bytes for Result too;
		// only a job without one keeps them in memory.
		j.resultJSON = raw
		if m.journal != nil {
			off := m.journal.Size()
			if m.appendLocked(Record{Kind: KindResult, Job: j.id, Result: raw}) == nil {
				j.resultJSON = nil
				j.resultOff, j.resultLen = off, m.journal.Size()-off
			}
		}
		j.transition(StateDone)
		m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateRunning, To: StateDone})
	case j.cancelRequested || errors.Is(runErr, context.Canceled):
		j.doneSlots = j.progressSlots()
		j.transition(StateCancelled)
		m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateRunning, To: StateCancelled})
	case errors.Is(runErr, context.DeadlineExceeded):
		j.errText = fmt.Sprintf("deadline exceeded after %gs", spec.TimeoutSec)
		j.doneSlots = j.progressSlots()
		j.transition(StateFailed)
		m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateRunning, To: StateFailed, Error: j.errText})
	default:
		j.errText = runErr.Error()
		j.doneSlots = j.progressSlots()
		j.transition(StateFailed)
		m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateRunning, To: StateFailed, Error: j.errText})
	}
	// A terminal job's checkpoint is dead weight; a fresh run of a
	// resubmitted id must also never see a stale one.
	m.removeCheckpointLocked(j.id)
	done := j.state == StateDone
	m.mu.Unlock()

	// Flatten the done job into the analytics table outside the manager
	// lock. Ingest only appends to memory (the table file is written at
	// Shutdown, and the journal already holds the result durably), so
	// this costs microseconds and frees the worker for its next job.
	if done && m.opts.Results != nil {
		if err := m.ingestResult(j.id, spec, report); err != nil {
			m.mu.Lock()
			m.resultsErrs++
			m.mu.Unlock()
		}
	}
}

// ingestResult flattens one done job into the results store. A
// duplicate is success — the row is already there (a journal replay
// racing a live edge, a resubmitted recovery), and the table's content
// for a job id never changes once ingested.
func (m *Manager) ingestResult(id string, spec Spec, report *locman.Report) error {
	row, err := ResultRow(id, spec, report)
	if err == nil {
		err = m.opts.Results.Ingest(row)
	}
	if errors.Is(err, results.ErrDuplicateJob) {
		return nil
	}
	return err
}

// backfillResultLocked rebuilds a recovered done job's analytics row
// from the result bytes the journal replay just read. Runs under the
// manager lock during Recover — before the recovering flag clears — so
// a /readyz 200 implies the table already answers for every recovered
// job. Jobs the store already holds (its table file loaded them) are
// left alone and not counted; after a crash the file holds only what
// the last Flush saved, and the journal supplies the rest.
func (m *Manager) backfillResultLocked(j *job) {
	if m.opts.Results == nil || m.opts.Results.Has(j.id) {
		return
	}
	var report locman.Report
	if err := json.Unmarshal(j.resultJSON, &report); err != nil {
		m.resultsErrs++
		return
	}
	if err := m.ingestResult(j.id, j.spec, &report); err != nil {
		m.resultsErrs++
		return
	}
	m.resultsBackfilled++
}

// runSpec is the deterministic heart of the worker: exactly the engine
// invocation and report encoding pcnsim performs, with a context and a
// progress sink attached (neither influences the results). The returned
// bytes are the report document, indented two spaces with a trailing
// newline — identical to pcnsim -json output for the same Spec. The
// determinism contract extends across durability: checkpoint capture
// never perturbs a run, and a run resumed from a checkpoint produces
// the identical bytes (the sim layer's checkpoint-equivalence property),
// so crash recovery is invisible in the result.
func (m *Manager) runSpec(ctx context.Context, id string, spec Spec, prog *telemetry.Progress) (*locman.Report, []byte, error) {
	var metrics *locman.NetworkMetrics
	if m.opts.Runner != nil {
		var err error
		metrics, err = m.opts.Runner.Run(ctx, RunContext{
			ID:       id,
			Spec:     spec,
			Progress: prog,
			Journal:  m.appendRecord,
		})
		if err != nil {
			return nil, nil, err
		}
	} else {
		cfg, err := spec.NetworkConfig()
		if err != nil {
			return nil, nil, err
		}
		cfg.Progress = prog
		metrics, err = m.simulate(ctx, id, cfg, spec)
		if err != nil {
			return nil, nil, err
		}
	}
	report := locman.NewReport(metrics)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return nil, nil, err
	}
	return report, buf.Bytes(), nil
}

// simulate dispatches the engine run, threading the durability options
// through: resume from a surviving checkpoint file when one fits the
// spec, and persist fresh checkpoints at the configured cadence.
func (m *Manager) simulate(ctx context.Context, id string, cfg locman.NetworkConfig, spec Spec) (*locman.NetworkMetrics, error) {
	if m.journal == nil {
		return locman.SimulateNetworkShardedCtx(ctx, cfg, spec.Slots, spec.Shards)
	}
	every := m.opts.CheckpointEvery
	var sink func(*locman.Checkpoint)
	if every > 0 {
		// Joined before simulate returns, whatever the run's outcome, so
		// the job's terminal record and checkpoint removal always come
		// after its last checkpoint.
		w := m.startCheckpointWriter(ctx, id)
		defer w.close()
		sink = w.put
	}
	if cp := m.loadCheckpoint(id); cp != nil {
		// shards 0 adopts the checkpoint's own partition, which also
		// covers specs that left Shards at 0 (GOMAXPROCS at capture).
		metrics, err := locman.ResumeNetworkCheckpointed(ctx, cfg, spec.Slots, 0, cp, every, sink)
		if err == nil {
			m.mu.Lock()
			m.resumed++
			m.mu.Unlock()
			return metrics, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		// The checkpoint does not describe this run (config drift,
		// partial write from an old binary); fall back to a clean run
		// rather than failing the job.
		m.mu.Lock()
		m.ckptFallbacks++
		m.mu.Unlock()
	}
	return locman.SimulateNetworkCheckpointed(ctx, cfg, spec.Slots, spec.Shards, every, sink)
}

// checkpointPath is where job id's resumable checkpoint lives.
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.opts.DataDir, "checkpoints", id+".ckpt")
}

// checkpointWriter persists one job's checkpoints on its own goroutine,
// so the file write, fsync, rename and journal record run beside the
// engine instead of on the shard that completed the boundary. It is
// handed each checkpoint's frame, which holds only the shards' encoded
// sections, so the captured state is garbage once the hand-off returns.
// The hand-off is unbuffered: put returns once the writer has taken the
// frame, which it does only after the previous one has landed, so at
// most one checkpoint is being written while the next is handed over,
// and files and journal records keep slot order.
type checkpointWriter struct {
	ctx  context.Context
	ch   chan *locman.CheckpointFrame
	done chan struct{}
}

func (m *Manager) startCheckpointWriter(ctx context.Context, id string) *checkpointWriter {
	w := &checkpointWriter{ctx: ctx, ch: make(chan *locman.CheckpointFrame), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for f := range w.ch {
			m.persistCheckpoint(id, f)
		}
	}()
	return w
}

// put hands a checkpoint to the writer; it is the run's checkpoint sink.
// Once the run's context is done the job is about to become terminal,
// which deletes its checkpoint, so a hand-off still waiting then is
// dropped rather than written: cancellation waits for at most the one
// write in flight.
func (w *checkpointWriter) put(cp *locman.Checkpoint) {
	select {
	case w.ch <- locman.FrameCheckpoint(cp):
	case <-w.ctx.Done():
	}
}

// close waits for the last handed-over checkpoint to land. The run must
// have returned, so no put is in progress.
func (w *checkpointWriter) close() {
	close(w.ch)
	<-w.done
}

// persistCheckpoint writes a checkpoint file atomically (temp file,
// fsync, rename), so the file is always either the old complete
// checkpoint or the new complete one — never a torn mix; the journal's
// checkpoint record is purely informational. The frame streams to the
// file, never assembled in memory. Called from the job's checkpoint
// writer mid-run; failures are counted, not fatal (the run itself is
// unaffected, only resumability degrades).
func (m *Manager) persistCheckpoint(id string, frame *locman.CheckpointFrame) {
	err := func() error {
		path := m.checkpointPath(id)
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if m.writingCheckpoint != nil {
			m.writingCheckpoint(id, frame.Slot)
		}
		if _, err = frame.WriteTo(f); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, path)
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.journalErrs++
		return
	}
	m.ckptWritten++
	m.appendLocked(Record{Kind: KindCheckpoint, Job: id, Slot: frame.Slot})
}

// loadCheckpoint reads and decodes job id's checkpoint file, returning
// nil when there is none (the common case) or when the bytes do not
// decode (counted as a fallback). Atomic persistence makes that a
// damaged disk or a file an older binary wrote in a retired format,
// never a crash-timing case.
func (m *Manager) loadCheckpoint(id string) *locman.Checkpoint {
	data, err := os.ReadFile(m.checkpointPath(id))
	if err != nil {
		return nil
	}
	cp, err := locman.DecodeCheckpoint(data)
	if err != nil {
		m.mu.Lock()
		m.ckptFallbacks++
		m.mu.Unlock()
		return nil
	}
	return cp
}

// removeCheckpointLocked deletes a terminal job's checkpoint file.
func (m *Manager) removeCheckpointLocked(id string) {
	if m.journal == nil {
		return
	}
	os.Remove(m.checkpointPath(id))
}

// progressSlots sums the live per-shard progress into completed
// terminal-slots; the caller must hold the lock (the underlying
// counters are atomic, so reading them is always safe). The engines
// report completed work directly (ShardStatus.Work), at sub-batch
// granularity where they have it (the columnar engine publishes per
// cohort), so no slot-times-size arithmetic happens here.
func (j *job) progressSlots() int64 {
	var total int64
	for _, s := range j.progress.Snapshot() {
		total += s.Work
	}
	return total
}

// Cancel requests cancellation of a job. A queued job is cancelled on
// the spot (the worker will skip it); a running job has its context
// cancelled and reaches StateCancelled as soon as its shards stop — the
// engines bound that to well under the service's two-second promise. A
// job already in a terminal state is left untouched; Cancel is
// idempotent.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.finished = m.opts.Clock()
		j.transition(StateCancelled)
		m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateQueued, To: StateCancelled})
		m.removeCheckpointLocked(j.id)
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	}
	return m.viewLocked(j), nil
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return m.viewLocked(j), nil
}

// List returns every job's view in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.viewLocked(m.jobs[id]))
	}
	return out
}

// Result returns a done job's report document: the exact bytes
// pcnsim -json would emit for the same Spec. A journaled job's bytes are
// read back from its result record outside the manager lock, and
// checked (ErrResultUnreadable otherwise); this keeps working after
// Shutdown, which pcnserve relies on while it drains HTTP.
func (m *Manager) Result(id string) ([]byte, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.state != StateDone {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (state %s)", ErrNotDone, j.state)
	}
	raw, off, n := j.resultJSON, j.resultOff, j.resultLen
	m.mu.Unlock()
	if raw != nil {
		return raw, nil
	}
	raw, err := readResult(m.journalPath(), off, n, id)
	if err != nil {
		return nil, fmt.Errorf("%w: job %s: %v", ErrResultUnreadable, id, err)
	}
	return raw, nil
}

// Done returns a channel closed when the job reaches a terminal state,
// for watchers that want to block instead of poll. A done job's results
// row (Options.Results) lands after this edge, outside the manager lock.
func (m *Manager) Done(id string) (<-chan struct{}, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.done, nil
}

// Shutdown drains the service: it stops accepting submissions, cancels
// every still-queued job, then waits for in-flight jobs to finish. If
// ctx expires first, the in-flight jobs are cancelled and Shutdown
// still waits for the workers to unwind (bounded by the engines'
// cancellation latency) before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		// Drain and cancel everything still queued; the channel is
		// drained under the lock, so no worker can race a dequeue into a
		// half-cancelled state.
	drain:
		for {
			select {
			case j := <-m.queue:
				// A queue slot can hold a job already cancelled by the
				// client; only still-queued jobs need the transition.
				if j.state == StateQueued {
					j.cancelRequested = true
					j.finished = m.opts.Clock()
					j.transition(StateCancelled)
					m.appendLocked(Record{Kind: KindState, Job: j.id, From: StateQueued, To: StateCancelled})
					m.removeCheckpointLocked(j.id)
				}
			default:
				break drain
			}
		}
		close(m.queue)
	}
	m.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		m.baseCancel()
		<-workersDone
		err = ctx.Err()
	}
	// The workers have unwound, so no append can race the close, and
	// the results table holds its final rows: save it once, here.
	m.mu.Lock()
	if m.journal != nil {
		m.journal.Close()
		m.journal = nil
	}
	m.mu.Unlock()
	m.flushResults()
	return err
}

// Stats is a point-in-time snapshot of the service's operational state,
// the source feeding the Prometheus /metrics endpoint.
type Stats struct {
	// QueueDepth is the number of jobs waiting and QueueCap the bound.
	QueueDepth int
	QueueCap   int
	// Workers is the pool size, BusyWorkers how many are simulating now.
	Workers     int
	BusyWorkers int
	// States counts every job ever submitted by current lifecycle state.
	States map[State]int64
	// TerminalSlots is the cumulative terminal-slots simulated across
	// all jobs: exact totals for finished jobs plus live
	// telemetry.Progress readings for running ones. Monotonically
	// non-decreasing, so it exports as a Prometheus counter and its rate
	// is the service's terminal-slots/s throughput.
	TerminalSlots int64
	// Durability state (zero without a DataDir): whether journal replay
	// is still in progress, the journal's current size, and the recovery
	// counters — records replayed and jobs re-enqueued at the last boot,
	// runs resumed from a checkpoint, checkpoints persisted, checkpoints
	// that had to be abandoned for a clean run, and failed best-effort
	// journal/checkpoint writes.
	Recovering          bool
	JournalBytes        int64
	JournalRecords      int64
	ReplayedRecords     int64
	RecoveredJobs       int64
	ResumedJobs         int64
	CheckpointsWritten  int64
	CheckpointFallbacks int64
	JournalErrors       int64
	// Results-store state (zero without Options.Results): rows the
	// analytics table currently holds, rows rebuilt from the journal at
	// the last boot, and rows that failed to flatten, ingest or persist.
	ResultRows        int64
	ResultsBackfilled int64
	ResultsErrors     int64
}

// Stats returns the current operational snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		QueueDepth:          len(m.queue),
		QueueCap:            m.opts.QueueDepth,
		Workers:             m.opts.Workers,
		BusyWorkers:         m.busy,
		States:              make(map[State]int64, 5),
		Recovering:          m.recovering,
		ReplayedRecords:     m.replayed,
		RecoveredJobs:       m.recovered,
		ResumedJobs:         m.resumed,
		CheckpointsWritten:  m.ckptWritten,
		CheckpointFallbacks: m.ckptFallbacks,
		JournalErrors:       m.journalErrs,
		ResultsBackfilled:   m.resultsBackfilled,
		ResultsErrors:       m.resultsErrs,
	}
	if m.opts.Results != nil {
		st.ResultRows = int64(m.opts.Results.Len())
	}
	if m.journal != nil {
		st.JournalBytes = m.journal.Size()
		st.JournalRecords = m.journal.Records()
	}
	for _, s := range States() {
		st.States[s] = 0
	}
	for _, j := range m.jobs {
		st.States[j.state]++
		if j.state.Terminal() {
			st.TerminalSlots += j.doneSlots
		} else if j.state == StateRunning {
			st.TerminalSlots += j.progressSlots()
		}
	}
	return st
}
