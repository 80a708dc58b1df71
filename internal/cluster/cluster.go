// Package cluster turns pcnserve into a coordinator/worker fleet for a
// single job. The coordinator accepts ordinary job Specs, partitions the
// terminal range into per-node shard slices, leases the slices to
// registered workers over HTTP/NDJSON, and folds the partial results
// back into a report byte-identical to a single-node run.
//
// Determinism is the whole design: terminal i's RNG stream is seeded
// positionally (stats.SeedSubStream(seed, i)) and shard geometry is a
// pure function of (terminals, shards), so any worker computes exactly
// the shards it is asked for, and locman.MergeNetworkPartials sums the
// shards' exact integer totals. The coordinator therefore
// resolves the shard count once, ships it explicitly in every lease, and
// pins each lease to a spec revision hash so a stale or misdirected
// partial can never silently contaminate a merge — it is rejected with a
// typed *MismatchError and the slice is re-leased.
//
// Wire protocol (all JSON, schema-versioned):
//
//	POST {coordinator}/api/v1/cluster/register   RegisterRequest → RegisterResponse
//	POST {coordinator}/api/v1/cluster/heartbeat  HeartbeatRequest → 204 (404 → re-register)
//	POST {worker}/api/v1/slices                  SliceRequest → NDJSON stream of SliceFrame
//
// The slice response stream doubles as the lease: progress frames reset
// the coordinator's lease watchdog, so a worker that dies (process kill,
// network partition) goes silent, the watchdog fires, and the slice
// returns to the pending set for another node. The stream ends with a
// single partial (or error) frame.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/telemetry"
	"repro/locman"
)

// WireSchema versions every cluster wire document (requests, frames,
// partial envelopes). A peer speaking a different schema is rejected
// outright rather than half-understood.
const WireSchema = 1

// SpecRevision fingerprints the exact work a lease describes: the full
// Spec document plus the resolved slot and shard counts (the two values
// a worker must not re-derive locally — a GOMAXPROCS-defaulted shard
// count would differ across machines). Workers recompute it from the
// shipped Spec and refuse mismatched leases; the coordinator stamps it
// on every dispatch and rejects partials carrying any other revision.
func SpecRevision(spec jobs.Spec, shards int) string {
	doc, err := json.Marshal(spec)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on one.
		panic(fmt.Sprintf("cluster: marshal spec: %v", err))
	}
	h := sha256.New()
	h.Write(doc)
	fmt.Fprintf(h, "|slots=%d|shards=%d", spec.Slots, shards)
	return "r" + hex.EncodeToString(h.Sum(nil))[:16]
}

// RegisterRequest announces a worker to the coordinator. Addr is the
// base URL at which the coordinator can reach the worker's slice
// endpoint.
type RegisterRequest struct {
	Schema int    `json:"schema"`
	Addr   string `json:"addr"`
}

// RegisterResponse carries the node id the worker must heartbeat under.
type RegisterResponse struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
}

// HeartbeatRequest refreshes a node's liveness.
type HeartbeatRequest struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
}

// SliceRequest is a lease: the coordinator asks a worker to simulate
// shards [Lo, Hi) of a Shards-way partition of the job's population.
// The Spec travels whole so workers are stateless; SpecRev pins the
// revision the coordinator computed so both sides agree on the exact
// work before any simulation starts.
type SliceRequest struct {
	Schema  int       `json:"schema"`
	Job     string    `json:"job"`
	SpecRev string    `json:"spec_rev"`
	Spec    jobs.Spec `json:"spec"`
	Shards  int       `json:"shards"`
	Lo      int       `json:"lo"`
	Hi      int       `json:"hi"`
}

// Slice frame types.
const (
	// FrameProgress carries live per-shard counters and doubles as the
	// lease keepalive.
	FrameProgress = "progress"
	// FramePartial ends the stream with the slice's partial result.
	FramePartial = "partial"
	// FrameError ends the stream with a remote failure description.
	FrameError = "error"
)

// SliceFrame is one NDJSON line of a slice response stream.
type SliceFrame struct {
	Type string `json:"type"`

	// Progress payload: per-shard counters for the leased slice,
	// indexed by global shard id.
	Shards []telemetry.ShardStatus `json:"shards,omitempty"`

	// Partial payload.
	Partial *PartialDoc `json:"partial,omitempty"`

	// Error payload.
	Error string `json:"error,omitempty"`
}

// PartialDoc is the wire envelope for one slice's partial result: the
// lease identity (job, revision, slice geometry) repeated alongside the
// opaque partial bytes, so the coordinator can reject a mismatched
// delivery before decoding a single payload byte. Data is the
// locman.EncodePartial serialization (base64 inside JSON).
type PartialDoc struct {
	Schema  int    `json:"schema"`
	Job     string `json:"job"`
	Node    string `json:"node"`
	SpecRev string `json:"spec_rev"`
	Shards  int    `json:"shards"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	Data    []byte `json:"data"`
}

// Decode unwraps and fully validates the envelope's payload: wire
// schema, the self-checking partial format, the partial's structural
// invariants, and envelope↔payload agreement on the slice geometry. The
// returned partial is safe to hand to locman.MergeNetworkPartials.
func (d *PartialDoc) Decode() (*locman.Partial, error) {
	if d.Schema != WireSchema {
		return nil, fmt.Errorf("cluster: partial wire schema %d, want %d", d.Schema, WireSchema)
	}
	p, err := locman.DecodePartial(d.Data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Shards != d.Shards || p.Lo != d.Lo || p.Hi != d.Hi {
		return nil, fmt.Errorf("cluster: partial payload covers [%d,%d) of %d shards, envelope says [%d,%d) of %d",
			p.Lo, p.Hi, p.Shards, d.Lo, d.Hi, d.Shards)
	}
	return p, nil
}

// MismatchError reports a partial result that does not belong to the
// lease it was delivered for — wrong job, spec revision, slice geometry,
// slot count or seed. It is the wire-layer face of the merge layer's
// slot-mismatch rejection: the coordinator refuses the partial before
// locman.MergeNetworkPartials ever sees it, fails the lease, and
// re-dispatches the slice. Match it with errors.As.
type MismatchError struct {
	Node  string // delivering node id
	Job   string // lease's job id
	Field string // "job", "spec_rev", "shards", "slice", "slots" or "seed"
	Got   string
	Want  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("cluster: node %s delivered a partial for the wrong %s on job %s: got %s, want %s",
		e.Node, e.Field, e.Job, e.Got, e.Want)
}
