package sim

import (
	"fmt"

	"repro/internal/des"
)

// Default fault-recovery parameters, substituted for zero values by
// Config.withDefaults.
const (
	// DefaultAckTimeout is the first retransmission timeout in scheduler
	// ticks when acked updates are enabled; it doubles on every retry.
	DefaultAckTimeout = 16
	// DefaultPageRetries is the recovery paging round budget: after the
	// nominal plan comes up empty, the network re-polls (and expands) this
	// many times before dropping the call.
	DefaultPageRetries = 8
	// maxUpdateRetries bounds the retransmission budget so the exponential
	// backoff shift can never overflow the tick arithmetic.
	maxUpdateRetries = 32
)

// ExplicitZero requests a literal zero for the FaultPlan knobs whose zero
// value means "use the default" (AckTimeout, PageRetries). Config
// validation folds the sentinel to zero before the engines see it, so
// FaultPlan{PageRetries: ExplicitZero} drops unanswered calls after the
// nominal plan with no recovery rounds at all.
const ExplicitZero = -1

// FaultPlan injects independent signalling-plane failure modes into a run
// and configures the recovery machinery that absorbs them. The zero value
// is the perfect signalling plane the paper assumes: no losses, no
// outages, fire-and-forget updates — and, by contract, a run with a zero
// FaultPlan is bit-identical to one without the fault subsystem at all (no
// extra RNG draws, no extra scheduler events).
//
// Every Bernoulli draw a fault mode takes comes from the affected
// terminal's own positional RNG stream (stats.SubStream), so injected
// faults preserve RunSharded's shard-count invariance.
//
// The JSON form is the "faults" section of a job Spec; the tags are wire
// format, and the journal and cluster lease revisions hash their bytes.
type FaultPlan struct {
	// UpdateLoss is the probability an uplink location-update message is
	// lost in transit (per transmission, including retransmissions).
	UpdateLoss float64 `json:"update_loss,omitempty"`
	// PollLoss is the probability the downlink poll broadcast into the
	// terminal's current cell fails to reach it during a paging cycle.
	PollLoss float64 `json:"poll_loss,omitempty"`
	// ReplyLoss is the probability the terminal's uplink paging reply is
	// lost in transit; the network times the cycle out and keeps searching.
	ReplyLoss float64 `json:"reply_loss,omitempty"`
	// UpdateRetries > 0 turns location updates into an acked exchange:
	// the HLR answers each applied update with a wire.Ack, and the
	// terminal retransmits after a timeout with exponential backoff, up
	// to this many retransmissions. An exhausted budget leaves the
	// terminal desynced until the next page re-centers it. 0 keeps the
	// paper's unacknowledged datagrams.
	UpdateRetries int `json:"update_retries,omitempty"`
	// AckTimeout is the first retransmission timeout in scheduler ticks
	// (0 means DefaultAckTimeout); retry k waits AckTimeout<<k ticks.
	// ExplicitZero requests a literal zero, which is valid only while
	// UpdateRetries is 0 (an acked exchange needs a positive timeout).
	AckTimeout int64 `json:"ack_timeout,omitempty"`
	// PageRetries is the recovery paging round budget (0 means
	// DefaultPageRetries, ExplicitZero means no recovery rounds: calls
	// unanswered after the nominal plan are dropped immediately).
	// Recovery round r blanket-polls every cell
	// within radius threshold+r of the registered center — re-covering
	// in-area terminals whose poll or reply was lost and expanding
	// ring by ring toward terminals that drifted out after lost updates.
	// A call still unanswered after the last round is dropped and
	// counted in Metrics.DroppedCalls.
	PageRetries int `json:"page_retries,omitempty"`
	// Outages lists scheduled HLR maintenance windows. While a window is
	// open, incoming location updates are not applied (and not acked);
	// they are counted in Metrics.OutageDeferred. Paging still works off
	// the last applied record.
	Outages []Outage `json:"outages,omitempty"`
}

// Outage is one scheduled HLR outage window: registrations arriving in
// slots [Start, End) are not applied.
type Outage struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// active reports whether any failure mode or the ack machinery is enabled;
// an inactive plan must leave the simulation bit-identical to the
// pre-fault-subsystem engine.
func (f FaultPlan) active() bool {
	return f.UpdateLoss > 0 || f.PollLoss > 0 || f.ReplyLoss > 0 ||
		f.UpdateRetries > 0 || len(f.Outages) > 0
}

// ackBackoff returns the retransmission timeout after the given number of
// already-spent retries.
func (f FaultPlan) ackBackoff(retries int) des.Time {
	return des.Time(f.AckTimeout) << uint(retries)
}

// covers reports whether slot falls inside a scheduled outage window.
func (f FaultPlan) covers(slot int64) bool {
	for _, w := range f.Outages {
		if slot >= w.Start && slot < w.End {
			return true
		}
	}
	return false
}

// validate rejects malformed fault plans; f must already carry its
// defaults.
func (f FaultPlan) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"update", f.UpdateLoss},
		{"poll", f.PollLoss},
		{"reply", f.ReplyLoss},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("sim: %s loss probability %v outside [0,1)", p.name, p.v)
		}
	}
	if f.UpdateRetries < 0 {
		return fmt.Errorf("sim: negative update retry budget %d", f.UpdateRetries)
	}
	if f.UpdateRetries > maxUpdateRetries {
		return fmt.Errorf("sim: update retry budget %d exceeds %d (backoff overflow)",
			f.UpdateRetries, maxUpdateRetries)
	}
	if f.AckTimeout < 0 {
		return fmt.Errorf("sim: ack timeout %d ticks must not be negative", f.AckTimeout)
	}
	if f.AckTimeout == 0 && f.UpdateRetries > 0 {
		return fmt.Errorf("sim: ack timeout 0 with update retries %d: acked exchanges need a positive timeout",
			f.UpdateRetries)
	}
	if f.PageRetries < 0 {
		return fmt.Errorf("sim: negative paging retry budget %d", f.PageRetries)
	}
	for i, w := range f.Outages {
		if w.Start < 0 {
			return fmt.Errorf("sim: outage window %d starts at negative slot %d", i, w.Start)
		}
		if w.End <= w.Start {
			return fmt.Errorf("sim: outage window %d is inverted or empty: [%d, %d)", i, w.Start, w.End)
		}
	}
	return nil
}
