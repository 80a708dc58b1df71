package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/locman"
)

// Worker defaults.
const (
	// DefaultHeartbeatEvery is the worker's heartbeat cadence — several
	// beats fit inside DefaultHeartbeatTimeout, so one lost request does
	// not mark the node dead.
	DefaultHeartbeatEvery = 2 * time.Second
	// DefaultStreamEvery is the progress-frame cadence on a slice
	// stream. It is far inside DefaultLeaseTimeout, so a healthy worker
	// never trips the coordinator's watchdog even when a shard computes
	// slowly.
	DefaultStreamEvery = 250 * time.Millisecond
)

// WorkerOptions configures a cluster worker.
type WorkerOptions struct {
	// Join is the coordinator's base URL; Advertise the base URL at
	// which the coordinator can reach this worker's slice endpoint.
	Join      string
	Advertise string

	HeartbeatEvery time.Duration
	StreamEvery    time.Duration
	Client         *http.Client
}

// Worker is the follower half of a cluster: it registers with the
// coordinator, heartbeats, and serves slice leases by running
// locman.SimulateNetworkSlice and streaming progress plus the final
// partial back. Workers are stateless between leases — every lease
// carries its full Spec — so one can crash and rejoin (or a fresh one
// join) at any point.
type Worker struct {
	opts   WorkerOptions
	id     atomic.Value // string
	served atomic.Int64
	failed atomic.Int64
}

// NewWorker builds a worker. Join and Advertise must both be set.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Join == "" {
		return nil, errors.New("cluster: worker needs a coordinator URL to join")
	}
	if opts.Advertise == "" {
		return nil, errors.New("cluster: worker needs an advertise URL")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opts.StreamEvery <= 0 {
		opts.StreamEvery = DefaultStreamEvery
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	w := &Worker{opts: opts}
	w.id.Store("")
	return w, nil
}

// ID returns the node id the coordinator issued, or "" before the first
// successful registration.
func (w *Worker) ID() string { return w.id.Load().(string) }

// SlicesServed and SlicesFailed expose the worker's lease counters for
// its Prometheus exposition.
func (w *Worker) SlicesServed() int64 { return w.served.Load() }
func (w *Worker) SlicesFailed() int64 { return w.failed.Load() }

// Run keeps the worker joined: it registers (retrying until the
// coordinator is reachable), then heartbeats until ctx ends,
// re-registering whenever the coordinator stops recognizing the node id
// (e.g. after a coordinator restart). It returns only when ctx ends.
func (w *Worker) Run(ctx context.Context) error {
	backoff := w.opts.HeartbeatEvery / 4
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	for w.ID() == "" {
		if err := w.register(ctx); err != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			continue
		}
	}
	ticker := time.NewTicker(w.opts.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			err := w.heartbeat(ctx)
			if errors.Is(err, ErrUnknownNode) {
				// Coordinator forgot us; re-register under a fresh id.
				w.register(ctx)
			}
		}
	}
}

// register announces the worker and stores the issued node id.
func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	err := w.post(ctx, "/api/v1/cluster/register",
		RegisterRequest{Schema: WireSchema, Addr: w.opts.Advertise}, &resp)
	if err != nil {
		return err
	}
	if resp.Schema != WireSchema || resp.ID == "" {
		return fmt.Errorf("cluster: register reply schema %d id %q", resp.Schema, resp.ID)
	}
	w.id.Store(resp.ID)
	return nil
}

// heartbeat refreshes the worker's liveness with the coordinator.
func (w *Worker) heartbeat(ctx context.Context) error {
	return w.post(ctx, "/api/v1/cluster/heartbeat",
		HeartbeatRequest{Schema: WireSchema, ID: w.ID()}, nil)
}

// post sends one JSON request to the coordinator; a 404 maps to
// ErrUnknownNode (the re-register signal).
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Join+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return ErrUnknownNode
	case resp.StatusCode >= 300:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// SliceHandler serves POST /api/v1/slices: it validates the lease,
// recomputes the spec revision to refuse coordinator/worker skew, runs
// the slice, and streams NDJSON frames — progress on a ticker (doubling
// as the lease keepalive), then exactly one terminal partial or error
// frame. Cancelling the request (coordinator watchdog, connection loss)
// cancels the simulation.
func (w *Worker) SliceHandler() http.Handler {
	return http.HandlerFunc(w.handleSlice)
}

// maxSliceRequest bounds a lease body; a SliceRequest is a job spec
// plus a few integers, well under a kilobyte.
const maxSliceRequest = 1 << 20

func (w *Worker) handleSlice(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var sr SliceRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, req.Body, maxSliceRequest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, fmt.Sprintf("bad slice request: %v", err), status)
		return
	}
	if sr.Schema != WireSchema {
		http.Error(rw, fmt.Sprintf("wire schema %d, want %d", sr.Schema, WireSchema), http.StatusBadRequest)
		return
	}
	if err := sr.Spec.Validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if sr.Shards < 1 || sr.Lo < 0 || sr.Hi <= sr.Lo || sr.Hi > sr.Shards {
		http.Error(rw, fmt.Sprintf("shard slice [%d,%d) of %d", sr.Lo, sr.Hi, sr.Shards), http.StatusBadRequest)
		return
	}
	if rev := SpecRevision(sr.Spec, sr.Shards); rev != sr.SpecRev {
		http.Error(rw, fmt.Sprintf("spec revision skew: computed %s, lease says %s", rev, sr.SpecRev),
			http.StatusBadRequest)
		return
	}
	cfg, err := sr.Spec.NetworkConfig()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	prog := &telemetry.Progress{}
	cfg.Progress = prog

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	flusher, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	emit := func(f SliceFrame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	progressFrame := func() SliceFrame {
		f := SliceFrame{Type: FrameProgress}
		for _, s := range prog.Snapshot() {
			if s.Shard >= sr.Lo && s.Shard < sr.Hi {
				f.Shards = append(f.Shards, s)
			}
		}
		return f
	}

	type sliceOut struct {
		p   *locman.Partial
		err error
	}
	done := make(chan sliceOut, 1)
	go func() {
		p, err := locman.SimulateNetworkSlice(req.Context(), cfg, sr.Spec.Slots, sr.Shards, sr.Lo, sr.Hi)
		done <- sliceOut{p, err}
	}()

	// Immediate empty progress frame: the lease-accepted signal.
	if !emit(progressFrame()) {
		return
	}
	ticker := time.NewTicker(w.opts.StreamEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if !emit(progressFrame()) {
				return // coordinator gone; the request context ends the sim
			}
		case out := <-done:
			if out.err != nil {
				w.failed.Add(1)
				if req.Context().Err() == nil {
					emit(SliceFrame{Type: FrameError, Error: out.err.Error()})
				}
				return
			}
			data, err := locman.EncodePartial(out.p)
			if err != nil {
				w.failed.Add(1)
				emit(SliceFrame{Type: FrameError, Error: err.Error()})
				return
			}
			// Final progress frame so the coordinator's telemetry lands
			// on the true end-of-slice counters, then the partial.
			if !emit(progressFrame()) {
				return
			}
			w.served.Add(1)
			emit(SliceFrame{Type: FramePartial, Partial: &PartialDoc{
				Schema: WireSchema, Job: sr.Job, Node: w.ID(), SpecRev: sr.SpecRev,
				Shards: sr.Shards, Lo: sr.Lo, Hi: sr.Hi, Data: data,
			}})
			return
		}
	}
}
