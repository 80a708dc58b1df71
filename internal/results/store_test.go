package results

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIngestRejections(t *testing.T) {
	s := NewStore()
	base := fourRows()[0]

	if err := s.Ingest(Row{}); err == nil || !strings.Contains(err.Error(), "no job id") {
		t.Fatalf("empty job id: %v", err)
	}

	if err := s.Ingest(base); err != nil {
		t.Fatal(err)
	}
	err := s.Ingest(base)
	if !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("duplicate ingest: %v", err)
	}

	nan := base
	nan.Job = "j000099"
	nan.Q = math.NaN()
	if err := s.Ingest(nan); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("NaN dimension: %v", err)
	}
	inf := base
	inf.Job = "j000098"
	inf.U = math.Inf(1)
	if err := s.Ingest(inf); err == nil || !strings.Contains(err.Error(), "must be finite") {
		t.Fatalf("Inf dimension: %v", err)
	}
	// The rejected rows must not have left partial column state behind.
	if s.Len() != 1 || s.Has("j000099") || s.Has("j000098") {
		t.Fatalf("rejected rows leaked into the table: len %d", s.Len())
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "results.table.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("missing file loaded %d rows", s.Len())
	}
}

// TestPersistRoundTrip proves the table file carries every value —
// including NaN metrics — bit for bit, and that a store from Open
// writes the file on Flush and never on Ingest.
func TestPersistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.table.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := fourRows()
	for _, r := range rows {
		if err := s.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ingest wrote the table file: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != len(rows) {
		t.Fatalf("reloaded %d rows, want %d", re.Len(), len(rows))
	}
	req, err := DecodeRequest([]byte(`{"group_by":["scenario","d"],"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"},{"op":"p95","column":"delay_p95"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("reloaded store answers differently:\n%s\nvs\n%s", wj, gj)
	}

	// The file spells NaN metrics out as strings (JSON numbers cannot).
	if !strings.Contains(string(mustRead(t, path)), `"NaN"`) {
		t.Fatal("persisted table does not carry the NaN metric")
	}
}

// TestFlushOnlyWhenIngested: Flush writes nothing for a NewStore, nor
// for a store from Open that ingested nothing since its load or last
// flush.
func TestFlushOnlyWhenIngested(t *testing.T) {
	if err := NewStore().Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results.table.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("flushing an empty, unchanged store wrote the file: %v", err)
	}
	if err := s.Ingest(fourRows()[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatalf("flush after an ingest wrote no file: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a second flush with no new rows rewrote the file: %v", err)
	}
}

// TestLoadFoldsRetiredEngine: a table saved while the retired "fast"
// engine existed loads with those rows under "cols", the name the same
// jobs flatten to today, so it saves back the bytes of a table that
// never said "fast".
func TestLoadFoldsRetiredEngine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.table.json")
	s := NewStore()
	for _, r := range fourRows() {
		if err := s.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	want := mustRead(t, path)
	old := strings.ReplaceAll(string(want), `"cols"`, `"fast"`)
	if old == string(want) {
		t.Fatal("fixture has no cols rows to age")
	}
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	resave := filepath.Join(dir, "resaved.json")
	if err := loaded.Save(resave); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, resave); string(got) != string(want) {
		t.Fatalf("old table loads differently:\n%s\nwant:\n%s", got, want)
	}
}

// TestLoadRejections holds the loader to strict validation: a damaged
// table file must fail loudly, never silently drop or mangle rows.
func TestLoadRejections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	s := NewStore()
	for _, r := range fourRows() {
		if err := s.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	good := string(mustRead(t, path))

	cases := []struct {
		name    string
		mutate  func(string) string
		wantSub string
	}{
		{"wrong schema", func(d string) string {
			return strings.Replace(d, `"schema": 1`, `"schema": 7`, 1)
		}, "table schema 7, want 1"},
		{"renamed column", func(d string) string {
			return strings.Replace(d, `"name": "scenario"`, `"name": "scenery"`, 1)
		}, `is "scenery", want "scenario"`},
		{"wrong kind", func(d string) string {
			return strings.Replace(d, `"name": "d",
   "kind": "int"`, `"name": "d",
   "kind": "float"`, 1)
		}, `column "d" is kind float`},
		{"unknown kind", func(d string) string {
			return strings.Replace(d, `"kind": "string"`, `"kind": "varchar"`, 1)
		}, "unknown column kind"},
		{"unparseable float", func(d string) string {
			return strings.Replace(d, `"0.05"`, `"zero"`, 1)
		}, `value "zero"`},
		{"non-finite dimension", func(d string) string {
			return strings.Replace(d, `"0.05"`, `"NaN"`, 1)
		}, "must be finite"},
		{"duplicate job id", func(d string) string {
			return strings.Replace(d, `"j000002"`, `"j000001"`, 1)
		}, "duplicate job"},
		{"empty job id", func(d string) string {
			return strings.Replace(d, `"j000001"`, `""`, 1)
		}, "has no job id"},
		{"column length mismatch", func(d string) string {
			return strings.Replace(d, `"rows": 4`, `"rows": 5`, 1)
		}, "values, want 5"},
		{"not json", func(string) string { return "not json {" }, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mutate(good)
			if bad == good {
				t.Fatal("mutation did not change the document")
			}
			badPath := filepath.Join(t.TempDir(), "bad.json")
			if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(badPath)
			if err == nil {
				t.Fatal("damaged table loaded without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestJobsOrder(t *testing.T) {
	s := NewStore()
	rows := fourRows()
	// Ingest backwards; Jobs must still list ascending.
	for i := len(rows) - 1; i >= 0; i-- {
		if err := s.Ingest(rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	jobs := s.Jobs()
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1] >= jobs[i] {
			t.Fatalf("jobs not in ascending order: %v", jobs)
		}
	}
	if !s.Has("j000003") || s.Has("j999999") {
		t.Fatal("Has is wrong")
	}
}
