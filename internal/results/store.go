package results

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
)

// TableSchema versions the persistence file layout written by Save and
// read by Open; it increments on any breaking change.
const TableSchema = 1

// ErrDuplicateJob rejects ingesting a job id the table already holds.
// The table's primary key is the job id, so a duplicate is always a
// re-ingestion (live edge racing a backfill, a replayed journal) and
// never new data; callers treat it as "already done".
var ErrDuplicateJob = errors.New("results: job already ingested")

// Store is the in-memory columnar results table: one typed slice per
// schema column, rows addressed by append position, plus a canonical
// row order sorted by job id. All methods are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	persist string // the path Open was given, where Flush saves; "" for NewStore
	dirty   bool   // rows ingested since the table was loaded or last flushed

	cols   []colData      // parallel to the columns schema
	jobRow map[string]int // job id → row position
	order  []int          // row positions in ascending job-id order
}

// colData is one column's backing storage; exactly one slice is used,
// matching the column's kind.
type colData struct {
	strs   []string
	ints   []int64
	floats []float64
}

// NewStore returns an empty, memory-only store.
func NewStore() *Store {
	return &Store{
		cols:   make([]colData, len(columns)),
		jobRow: make(map[string]int),
	}
}

// Open returns a store backed by the table file at path: if the file
// exists its rows are loaded (the file must be a valid TableSchema
// document, anything else is an error, not silent data loss), and Flush
// later saves the table back there. A missing file is simply an empty
// store. Ingest never writes the file, so between flushes it lags the
// table; on a pcnserve data directory the job journal is the per-job
// durable record, and recovery backfills whatever rows the file lacks.
func Open(path string) (*Store, error) {
	s := NewStore()
	s.persist = path
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := s.load(data); err != nil {
		return nil, fmt.Errorf("results: loading table %s: %w", path, err)
	}
	return s, nil
}

// Len reports the number of rows in the table.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// Has reports whether the table already holds the job.
func (s *Store) Has(job string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.jobRow[job]
	return ok
}

// Jobs lists the ingested job ids in canonical (ascending id) order.
func (s *Store) Jobs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	for i, row := range s.order {
		out[i] = s.cols[colIndex["job"]].strs[row]
	}
	return out
}

// Ingest appends one job's row to the table. The job id must be
// non-empty and new (ErrDuplicateJob otherwise), and every dimension
// value must be finite — dimensions become group keys and filter
// operands, where NaN and infinity have no stable meaning. Metric
// columns may carry NaN.
//
// Ingest only touches memory, even on a store from Open; Flush saves
// the table.
func (s *Store) Ingest(row Row) error {
	if row.Job == "" {
		return fmt.Errorf("results: row has no job id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.jobRow[row.Job]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateJob, row.Job)
	}
	for _, c := range columns {
		if c.dim && c.kind == KindFloat {
			if v := c.f64(&row); math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("results: dimension column %q must be finite, got %v", c.name, v)
			}
		}
	}
	pos := len(s.order)
	for i, c := range columns {
		switch c.kind {
		case KindString:
			s.cols[i].strs = append(s.cols[i].strs, c.str(&row))
		case KindInt:
			s.cols[i].ints = append(s.cols[i].ints, c.i64(&row))
		case KindFloat:
			s.cols[i].floats = append(s.cols[i].floats, c.f64(&row))
		}
	}
	s.jobRow[row.Job] = pos
	// Keep the canonical order sorted by job id whatever the ingestion
	// order: completion order (live), submission order (backfill) and
	// file order (load) all converge on the same table.
	jobs := s.cols[colIndex["job"]].strs
	at := sort.Search(len(s.order), func(i int) bool { return jobs[s.order[i]] > row.Job })
	s.order = append(s.order, 0)
	copy(s.order[at+1:], s.order[at:])
	s.order[at] = pos
	s.dirty = true
	return nil
}

// Flush saves the table to the file Open loaded it from, when rows were
// ingested since the load or the last flush. It is a no-op on a NewStore.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist == "" || !s.dirty {
		return nil
	}
	if err := s.saveLocked(s.persist); err != nil {
		return fmt.Errorf("results: saving table: %w", err)
	}
	s.dirty = false
	return nil
}

// fileTable is the persistence document: the schema version and one
// entry per column in schema order, rows already in canonical job-id
// order. Float columns are encoded as shortest-round-trip strings
// (strconv 'g', precision -1) so every finite value — and NaN — loads
// back bit-for-bit; encoding/json cannot carry NaN as a number.
type fileTable struct {
	Schema  int          `json:"schema"`
	Rows    int          `json:"rows"`
	Columns []fileColumn `json:"columns"`
}

type fileColumn struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Strs   []string `json:"strs,omitempty"`
	Ints   []int64  `json:"ints,omitempty"`
	Floats []string `json:"floats,omitempty"`
}

// Save writes the table to path atomically. The document is canonical:
// rows in job-id order, columns in schema order — two stores with the
// same content save byte-identical files regardless of ingestion order.
func (s *Store) Save(path string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.saveLocked(path)
}

func (s *Store) saveLocked(path string) error {
	doc := fileTable{Schema: TableSchema, Rows: len(s.order)}
	for i, c := range columns {
		fc := fileColumn{Name: c.name, Kind: c.kind.String()}
		switch c.kind {
		case KindString:
			fc.Strs = make([]string, 0, len(s.order))
			for _, row := range s.order {
				fc.Strs = append(fc.Strs, s.cols[i].strs[row])
			}
		case KindInt:
			fc.Ints = make([]int64, 0, len(s.order))
			for _, row := range s.order {
				fc.Ints = append(fc.Ints, s.cols[i].ints[row])
			}
		case KindFloat:
			fc.Floats = make([]string, 0, len(s.order))
			for _, row := range s.order {
				fc.Floats = append(fc.Floats, strconv.FormatFloat(s.cols[i].floats[row], 'g', -1, 64))
			}
		}
		doc.Columns = append(doc.Columns, fc)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(data, '\n')); err == nil {
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
}

// load replays a persistence document into the (empty) store.
func (s *Store) load(data []byte) error {
	var doc fileTable
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Schema != TableSchema {
		return fmt.Errorf("table schema %d, want %d", doc.Schema, TableSchema)
	}
	if len(doc.Columns) != len(columns) {
		return fmt.Errorf("table has %d columns, want %d", len(doc.Columns), len(columns))
	}
	for i, fc := range doc.Columns {
		c := columns[i]
		if fc.Name != c.name {
			return fmt.Errorf("column %d is %q, want %q", i, fc.Name, c.name)
		}
		kind, err := kindByName(fc.Kind)
		if err != nil {
			return err
		}
		if kind != c.kind {
			return fmt.Errorf("column %q is kind %s, want %s", fc.Name, kind, c.kind)
		}
		n := len(fc.Strs) + len(fc.Ints) + len(fc.Floats)
		if n != doc.Rows {
			return fmt.Errorf("column %q has %d values, want %d", fc.Name, n, doc.Rows)
		}
		switch c.kind {
		case KindString:
			s.cols[i].strs = append([]string(nil), fc.Strs...)
		case KindInt:
			s.cols[i].ints = append([]int64(nil), fc.Ints...)
		case KindFloat:
			s.cols[i].floats = make([]float64, 0, doc.Rows)
			for _, repr := range fc.Floats {
				v, err := strconv.ParseFloat(repr, 64)
				if err != nil {
					return fmt.Errorf("column %q value %q: %v", fc.Name, repr, err)
				}
				if c.dim && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return fmt.Errorf("dimension column %q must be finite, got %v", fc.Name, v)
				}
				s.cols[i].floats = append(s.cols[i].floats, v)
			}
		}
	}
	// Tables saved while the retired "fast" engine existed name it. Its
	// runs were byte-identical to the columnar engine's, which the name
	// now selects, and a backfill from the journal flattens the same job
	// to "cols"; folding here keeps the loaded and the backfilled table
	// one table.
	for k, e := range s.cols[colIndex["engine"]].strs {
		if e == "fast" {
			s.cols[colIndex["engine"]].strs[k] = "cols"
		}
	}
	jobs := s.cols[colIndex["job"]].strs
	for pos, job := range jobs {
		if job == "" {
			return fmt.Errorf("row %d has no job id", pos)
		}
		if _, dup := s.jobRow[job]; dup {
			return fmt.Errorf("duplicate job %s", job)
		}
		s.jobRow[job] = pos
		s.order = append(s.order, pos)
	}
	// The file is canonical (saved in job order), but trust nothing:
	// re-sort so a hand-edited file still yields the canonical table.
	sort.Slice(s.order, func(i, j int) bool { return jobs[s.order[i]] < jobs[s.order[j]] })
	return nil
}
