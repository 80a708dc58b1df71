// Package trace generates, serializes and replays mobility/call-arrival
// traces. Real PCN subscriber traces from the paper's era do not exist in
// public form, so the generator synthesizes traces from the paper's own
// random-walk model (DESIGN.md's substitution rule); the CSV and JSONL
// codecs let experiments be archived and replayed deterministically, and
// Replay evaluates any threshold/delay operating point against a recorded
// trace instead of a live RNG.
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/paging"
	"repro/internal/stats"
)

// Kind tags an event.
type Kind uint8

const (
	// Move records that the terminal moved to Cell during Slot.
	Move Kind = iota
	// Call records an incoming call during Slot (Cell is the terminal's
	// position at that moment).
	Call
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Move:
		return "move"
	case Call:
		return "call"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one trace record. Slots without movement or calls produce no
// events. Cells use hex axial coordinates; 1-D traces keep R = 0.
type Event struct {
	Slot int64
	Kind Kind
	Cell grid.Hex
}

// Trace is a complete recorded workload.
type Trace struct {
	// Grid is the geometry the trace was recorded on.
	Grid grid.Kind
	// Slots is the workload length (events are sparse within it).
	Slots int64
	// Events, ordered by slot.
	Events []Event
}

// Validate checks internal consistency: ordered slots within range, moves
// between adjacent cells starting from the origin.
func (t *Trace) Validate() error {
	if t.Slots <= 0 {
		return errors.New("trace: non-positive slot count")
	}
	pos := grid.Hex{}
	last := int64(-1)
	for i, e := range t.Events {
		if e.Slot < 0 || e.Slot >= t.Slots {
			return fmt.Errorf("trace: event %d slot %d outside [0,%d)", i, e.Slot, t.Slots)
		}
		if e.Slot < last {
			return fmt.Errorf("trace: event %d out of order", i)
		}
		if e.Slot == last {
			return fmt.Errorf("trace: two events in slot %d (moves and calls are disjoint)", e.Slot)
		}
		last = e.Slot
		switch e.Kind {
		case Move:
			if pos.Dist(e.Cell) != 1 {
				return fmt.Errorf("trace: event %d moves %v→%v (distance %d)", i, pos, e.Cell, pos.Dist(e.Cell))
			}
			if t.Grid == grid.OneDim && e.Cell.R != 0 {
				return fmt.Errorf("trace: event %d leaves the line: %v", i, e.Cell)
			}
			pos = e.Cell
		case Call:
			if e.Cell != pos {
				return fmt.Errorf("trace: event %d call at %v but terminal at %v", i, e.Cell, pos)
			}
		default:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// Generate synthesizes a trace of the paper's workload model: per slot,
// a call with probability c, otherwise a move with probability q.
func Generate(kind grid.Kind, params chain.Params, slots int64, seed uint64) (*Trace, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if slots <= 0 {
		return nil, errors.New("trace: slots must be positive")
	}
	rng := stats.NewRNG(seed)
	moveProb := 0.0
	if params.Q > 0 {
		moveProb = params.Q / (1 - params.C)
	}
	tr := &Trace{Grid: kind, Slots: slots}
	pos := grid.Hex{}
	for s := int64(0); s < slots; s++ {
		switch {
		case rng.Bernoulli(params.C):
			tr.Events = append(tr.Events, Event{Slot: s, Kind: Call, Cell: pos})
		case rng.Bernoulli(moveProb):
			if kind == grid.OneDim {
				if rng.Intn(2) == 0 {
					pos.Q--
				} else {
					pos.Q++
				}
			} else {
				pos = pos.Neighbor(rng.Intn(6))
			}
			tr.Events = append(tr.Events, Event{Slot: s, Kind: Move, Cell: pos})
		}
	}
	return tr, nil
}

// Result reports a replay, in the same units as core.Breakdown.
type Result struct {
	Slots                             int64
	Updates, Calls, PolledCells       int64
	UpdateCost, PagingCost, TotalCost float64
	Delay                             stats.Accumulator
}

// Replay runs the paper's mechanism with threshold d and delay bound m over
// a recorded trace and returns the realized costs. scheme nil means SDF;
// probability-aware schemes receive the analytical stationary distribution
// for the trace's grid (exact 2-D model on the hex grid).
func Replay(tr *Trace, d, m int, costs core.Costs, scheme paging.Scheme) (Result, error) {
	if err := tr.Validate(); err != nil {
		return Result{}, err
	}
	if d < 0 {
		return Result{}, fmt.Errorf("trace: negative threshold %d", d)
	}
	if err := costs.Validate(); err != nil {
		return Result{}, err
	}
	if scheme == nil {
		scheme = paging.SDF{}
	}
	rings := tr.Grid.RingSizes(d)
	var pi []float64
	if _, needs := scheme.(paging.OptimalDP); needs {
		// A recorded trace carries no (q, c) to derive a stationary
		// distribution from; give probability-aware schemes a neutral
		// uniform prior. Callers wanting a model-informed partition can
		// precompute it and pass a fixed scheme instead.
		pi = make([]float64, d+1)
		for i := range pi {
			pi[i] = 1 / float64(d+1)
		}
	}
	part := scheme.Partition(rings, pi, m)
	w := part.CumulativeCells()
	ringSub := paging.FromPartition(part).RingGroup(part.Rings())

	res := Result{Slots: tr.Slots}
	center := grid.Hex{}
	for _, e := range tr.Events {
		switch e.Kind {
		case Call:
			j := ringSub[e.Cell.Dist(center)]
			res.Calls++
			res.PolledCells += int64(w[j])
			res.Delay.Add(float64(j + 1))
			center = e.Cell
		case Move:
			if e.Cell.Dist(center) > d {
				res.Updates++
				center = e.Cell
			}
		}
	}
	res.UpdateCost = float64(res.Updates) * costs.Update / float64(tr.Slots)
	res.PagingCost = float64(res.PolledCells) * costs.Poll / float64(tr.Slots)
	res.TotalCost = res.UpdateCost + res.PagingCost
	return res, nil
}

// --- CSV codec -----------------------------------------------------------

// WriteCSV writes "slot,kind,q,r" records preceded by a metadata header.
func WriteCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	kind := "2d"
	if tr.Grid == grid.OneDim {
		kind = "1d"
	}
	if _, err := fmt.Fprintf(bw, "#trace,%s,%d\n", kind, tr.Slots); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "slot,kind,q,r"); err != nil {
		return err
	}
	for _, e := range tr.Events {
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%d\n", e.Slot, e.Kind, e.Cell.Q, e.Cell.R); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the format written by WriteCSV and validates the result.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, errors.New("trace: empty input")
	}
	head := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(head) != 3 || head[0] != "#trace" {
		return nil, fmt.Errorf("trace: bad header %q", sc.Text())
	}
	tr := &Trace{}
	switch head[1] {
	case "1d":
		tr.Grid = grid.OneDim
	case "2d":
		tr.Grid = grid.TwoDimHex
	default:
		return nil, fmt.Errorf("trace: unknown grid %q", head[1])
	}
	slots, err := strconv.ParseInt(head[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("trace: bad slot count: %w", err)
	}
	tr.Slots = slots
	if !sc.Scan() {
		return nil, errors.New("trace: missing column header")
	}
	line := 2
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		f := strings.Split(text, ",")
		if len(f) != 4 {
			return nil, fmt.Errorf("trace: line %d: %d fields", line, len(f))
		}
		slot, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		var kind Kind
		switch f[1] {
		case "move":
			kind = Move
		case "call":
			kind = Call
		default:
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, f[1])
		}
		q, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		rr, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		tr.Events = append(tr.Events, Event{Slot: slot, Kind: kind, Cell: grid.Hex{Q: q, R: rr}})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// --- JSONL codec ---------------------------------------------------------

type jsonMeta struct {
	Grid  string `json:"grid"`
	Slots int64  `json:"slots"`
}

type jsonEvent struct {
	Slot int64  `json:"slot"`
	Kind string `json:"kind"`
	Q    int    `json:"q"`
	R    int    `json:"r"`
}

// WriteJSONL writes one metadata object followed by one JSON object per
// event.
func WriteJSONL(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	kind := "2d"
	if tr.Grid == grid.OneDim {
		kind = "1d"
	}
	if err := enc.Encode(jsonMeta{Grid: kind, Slots: tr.Slots}); err != nil {
		return err
	}
	for _, e := range tr.Events {
		if err := enc.Encode(jsonEvent{Slot: e.Slot, Kind: e.Kind.String(), Q: e.Cell.Q, R: e.Cell.R}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses the format written by WriteJSONL and validates the
// result.
func ReadJSONL(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var meta jsonMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, fmt.Errorf("trace: metadata: %w", err)
	}
	tr := &Trace{Slots: meta.Slots}
	switch meta.Grid {
	case "1d":
		tr.Grid = grid.OneDim
	case "2d":
		tr.Grid = grid.TwoDimHex
	default:
		return nil, fmt.Errorf("trace: unknown grid %q", meta.Grid)
	}
	for {
		var je jsonEvent
		if err := dec.Decode(&je); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		var kind Kind
		switch je.Kind {
		case "move":
			kind = Move
		case "call":
			kind = Call
		default:
			return nil, fmt.Errorf("trace: unknown kind %q", je.Kind)
		}
		tr.Events = append(tr.Events, Event{Slot: je.Slot, Kind: kind, Cell: grid.Hex{Q: je.Q, R: je.R}})
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
