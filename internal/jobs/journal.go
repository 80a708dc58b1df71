package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// The durable job journal: an append-only NDJSON file under the
// manager's data directory recording every submission, state transition
// and result. Each line is a self-checking envelope
//
//	{"r":<record>,"c":<crc32>}
//
// where c is the IEEE CRC32 of r's exact byte serialization. Appends are
// fsynced, so every record the journal ever acknowledged survives a
// crash; a crash mid-append leaves a torn final line, which replay
// detects (short line, bad JSON or bad checksum) and truncates away —
// the journal's recovery unit is the record, never the file.
//
// Replay stops at the first invalid record: everything after a
// corruption point is untrusted, because later records' meaning depends
// on earlier ones (state transitions chain). The fully-appended prefix
// is always recovered intact (TestJournalTruncatedTail,
// FuzzJournalReplay).

// JournalSchema versions the journal record format.
const JournalSchema = 1

// Record kinds.
const (
	// KindSubmit records a job's acceptance: id and full Spec.
	KindSubmit = "submit"
	// KindState records a lifecycle transition, including the crash-
	// recovery edge running → queued written during journal replay.
	KindState = "state"
	// KindResult records a completed job's report document byte-for-byte
	// (base64 inside the envelope); it is always appended before the
	// done-state record, so a replayed done job always has its bytes.
	// The Manager serves a journaled done job's report by reading this
	// line back (readResult), so the journal is where those bytes live.
	KindResult = "result"
	// KindCheckpoint notes that a resumable checkpoint for a running job
	// was persisted. Informational: the checkpoint bytes themselves live
	// in their own atomically-replaced file, so replay never depends on
	// this record.
	KindCheckpoint = "checkpoint"
	// KindDispatch records a distributed coordinator leasing a shard
	// slice [Lo, Hi) of a job to a worker node; KindLease records that
	// lease ending without a partial result (worker death, stream loss,
	// a mismatched partial) and the slice returning to the pending set
	// for re-dispatch. Both are informational, like KindCheckpoint: a
	// coordinator recovering from a crash re-runs the job's dispatch
	// from scratch (the replay re-queues the job), so replay never
	// depends on them — but the journal then carries the full lease
	// history of every job for post-mortems.
	KindDispatch = "dispatch"
	KindLease    = "lease"
)

// Record is one journal entry. Seq is assigned by the journal and
// strictly increases across the file; replay rejects regressions.
type Record struct {
	Schema int       `json:"schema"`
	Seq    int64     `json:"seq"`
	Kind   string    `json:"kind"`
	Time   time.Time `json:"time"`
	Job    string    `json:"job"`

	// Submit payload.
	Spec *Spec `json:"spec,omitempty"`

	// State payload.
	From  State  `json:"from,omitempty"`
	To    State  `json:"to,omitempty"`
	Error string `json:"error,omitempty"`

	// Result payload: the report document bytes.
	Result []byte `json:"result,omitempty"`

	// Checkpoint payload: the slot boundary the checkpoint covers.
	Slot int64 `json:"slot,omitempty"`

	// Dispatch/lease payload: the worker node and the shard slice
	// [Lo, Hi) leased to it. Error (shared with the state payload above)
	// carries the lease's failure reason on KindLease records.
	Node string `json:"node,omitempty"`
	Lo   int    `json:"lo,omitempty"`
	Hi   int    `json:"hi,omitempty"`

	// off and n locate a replayed record's line, newline included, in
	// the journal file. ReplayJournal sets them; they are never encoded.
	off, n int64
}

// envelope is the on-disk line framing: the raw record bytes plus their
// checksum. R stays a RawMessage so the checksum is computed over the
// exact bytes written, independent of field ordering or encoder quirks.
type envelope struct {
	R json.RawMessage `json:"r"`
	C uint32          `json:"c"`
}

// validateRecord checks one decoded record's internal consistency
// against the sequence number of its predecessor. A submit record must
// carry a spec, but the spec is not validated here: Submit validated it
// before appending, and replay keeps a spec that today's rules refuse,
// because stopping there would truncate every later record (done
// results included). Recover validates the specs of the jobs it
// re-queues instead.
func validateRecord(rec *Record, prevSeq int64) error {
	if rec.Schema != JournalSchema {
		return fmt.Errorf("jobs: journal record schema %d, want %d", rec.Schema, JournalSchema)
	}
	if rec.Seq <= prevSeq {
		return fmt.Errorf("jobs: journal seq %d not above predecessor %d", rec.Seq, prevSeq)
	}
	if rec.Job == "" {
		return errors.New("jobs: journal record without a job id")
	}
	switch rec.Kind {
	case KindSubmit:
		if rec.Spec == nil {
			return errors.New("jobs: submit record without a spec")
		}
	case KindState:
		if !rec.From.Valid() || !rec.To.Valid() {
			return fmt.Errorf("jobs: state record %q → %q", rec.From, rec.To)
		}
		if !CanTransition(rec.From, rec.To) {
			return fmt.Errorf("jobs: state record with illegal transition %s → %s", rec.From, rec.To)
		}
	case KindResult:
		if len(rec.Result) == 0 {
			return errors.New("jobs: result record without result bytes")
		}
	case KindCheckpoint:
		if rec.Slot <= 0 {
			return fmt.Errorf("jobs: checkpoint record at slot %d", rec.Slot)
		}
	case KindDispatch, KindLease:
		if rec.Node == "" {
			return fmt.Errorf("jobs: %s record without a node id", rec.Kind)
		}
		if rec.Lo < 0 || rec.Hi <= rec.Lo {
			return fmt.Errorf("jobs: %s record with shard slice [%d,%d)", rec.Kind, rec.Lo, rec.Hi)
		}
	default:
		return fmt.Errorf("jobs: unknown journal record kind %q", rec.Kind)
	}
	return nil
}

// encodeRecord frames one record as a journal line (with trailing
// newline).
func encodeRecord(rec *Record) ([]byte, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(envelope{R: raw, C: crc32.ChecksumIEEE(raw)})
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// decodeLine parses and checks one journal line (without its newline).
func decodeLine(line []byte, prevSeq int64) (Record, error) {
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return Record{}, fmt.Errorf("jobs: journal envelope: %w", err)
	}
	if crc32.ChecksumIEEE(env.R) != env.C {
		return Record{}, errors.New("jobs: journal record checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(env.R, &rec); err != nil {
		return Record{}, fmt.Errorf("jobs: journal record: %w", err)
	}
	if err := validateRecord(&rec, prevSeq); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ReplayJournal scans journal records from r and returns the longest
// valid prefix: every fully-appended, checksum-clean record up to (not
// including) the first torn or corrupt one, plus that prefix's byte
// length. A truncated tail is normal after a crash, so it is not an
// error; only a failure to read r itself is.
func ReplayJournal(r io.Reader) ([]Record, int64, error) {
	br := bufio.NewReader(r)
	var recs []Record
	var valid int64
	prevSeq := int64(0)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Either a clean end or a torn final line (no newline
				// reached the disk); both end the valid prefix here.
				return recs, valid, nil
			}
			return recs, valid, err
		}
		rec, err := decodeLine(bytes.TrimSuffix(line, []byte("\n")), prevSeq)
		if err != nil {
			return recs, valid, nil
		}
		rec.off, rec.n = valid, int64(len(line))
		recs = append(recs, rec)
		valid += int64(len(line))
		prevSeq = rec.Seq
	}
}

// CheckJournal is the strict variant schemacheck uses: every byte of the
// document must belong to a valid record — a truncated or corrupt tail
// is an error here, not a recovery case.
func CheckJournal(data []byte) (int, error) {
	recs, valid, err := ReplayJournal(bytes.NewReader(data))
	if err != nil {
		return len(recs), err
	}
	if valid != int64(len(data)) {
		return len(recs), fmt.Errorf("jobs: invalid journal data after %d valid record(s) (byte %d of %d)",
			len(recs), valid, len(data))
	}
	return len(recs), nil
}

// Journal is an open, append-only journal file. It is not safe for
// concurrent use; the Manager serializes appends under its lock.
type Journal struct {
	f       *os.File
	seq     int64
	records int64
	size    int64
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its contents, truncates any torn or corrupt tail so the file ends at
// the last valid record, and returns the journal positioned for
// appending plus the replayed records.
func OpenJournal(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, valid, err := ReplayJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, records: int64(len(recs)), size: valid}
	if len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq
	}
	return j, recs, nil
}

// Append assigns the record's sequence number, frames it, writes it and
// fsyncs — when Append returns nil the record survives any crash.
func (j *Journal) Append(rec Record) error {
	rec.Schema = JournalSchema
	rec.Seq = j.seq + 1
	if err := validateRecord(&rec, j.seq); err != nil {
		return err
	}
	line, err := encodeRecord(&rec)
	if err != nil {
		return err
	}
	// Size follows the file's write position even when a write or sync
	// fails, so offsets taken from it keep locating later records.
	n, err := j.f.Write(line)
	j.size += int64(n)
	if err != nil {
		return err
	}
	// The whole line reached the file, so its seq is spent even if the
	// fsync fails: a later record must not reuse it.
	j.seq = rec.Seq
	j.records++
	return j.f.Sync()
}

// Records returns the number of records in the journal (replayed plus
// appended).
func (j *Journal) Records() int64 { return j.records }

// Size returns the journal's byte length: the offset at which the next
// record will start.
func (j *Journal) Size() int64 { return j.size }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// readResult reads the journal line at [off, off+n) of the file at path
// (newline included), checks its checksum and that it is job id's result
// record, and returns the report bytes it carries. It opens the file
// itself, so it works after the appending Journal is closed. Nothing
// but the checked record's own bytes is ever returned.
func readResult(path string, off, n int64, id string) ([]byte, error) {
	if n < 2 {
		return nil, fmt.Errorf("jobs: journal line of %d bytes", n)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	line := make([]byte, n)
	if _, err := f.ReadAt(line, off); err != nil {
		return nil, fmt.Errorf("jobs: reading journal bytes [%d,%d): %w", off, off+n, err)
	}
	if line[n-1] != '\n' {
		return nil, fmt.Errorf("jobs: journal bytes [%d,%d) are not one line", off, off+n)
	}
	rec, err := decodeLine(line[:n-1], 0)
	if err != nil {
		return nil, err
	}
	if rec.Kind != KindResult || rec.Job != id {
		return nil, fmt.Errorf("jobs: journal record at byte %d is %s of %s, want result of %s", off, rec.Kind, rec.Job, id)
	}
	return rec.Result, nil
}
