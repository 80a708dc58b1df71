package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/results"
)

// queryJSON runs a query against a store and returns the compact
// response document, the byte string the restart-identity guarantees
// are phrased over.
func queryJSON(t *testing.T, s *results.Store, req string) string {
	t.Helper()
	r, err := results.DecodeRequest([]byte(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// waitRow waits for job id's results row. A done job's row lands after
// its done edge (Manager.Done), so waitTerminal alone does not imply it.
func waitRow(t *testing.T, s *results.Store, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Has(id) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never landed a results row", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManagerIngestsDoneJobs: every job reaching done lands exactly one
// row in the analytics store; failed jobs land none.
func TestManagerIngestsDoneJobs(t *testing.T) {
	store := results.NewStore()
	m := New(Options{QueueDepth: 4, Workers: 1, Results: store})
	defer m.Shutdown(context.Background())

	v1, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	spec2.Seed = 2
	v2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	// A job that fails at run time (its deadline passes) must not be
	// flattened.
	bad := testSpec()
	bad.Terminals = 1_000
	bad.Slots = 50_000_000
	bad.TimeoutSec = 0.05
	v3, err := m.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{v1.ID, v2.ID, v3.ID} {
		waitTerminal(t, m, id)
	}
	waitRow(t, store, v1.ID)
	waitRow(t, store, v2.ID)

	if !store.Has(v1.ID) || !store.Has(v2.ID) || store.Has(v3.ID) {
		t.Fatalf("store rows: has(%s)=%v has(%s)=%v has(%s)=%v",
			v1.ID, store.Has(v1.ID), v2.ID, store.Has(v2.ID), v3.ID, store.Has(v3.ID))
	}
	st := m.Stats()
	if st.ResultRows != 2 || st.ResultsBackfilled != 0 || st.ResultsErrors != 0 {
		t.Fatalf("stats = %+v, want 2 rows, 0 backfilled, 0 errors", st)
	}
	got := queryJSON(t, store, `{"group_by":["seed"],"aggregates":[{"op":"count"}]}`)
	want := `{"schema":1,"group_by":["seed"],"aggregates":["count"],"rows_scanned":2,"rows_matched":2,"groups":[{"key":[1],"values":[1]},{"key":[2],"values":[1]}]}`
	if got != want {
		t.Fatalf("query over ingested rows:\ngot:  %s\nwant: %s", got, want)
	}
}

// TestManagerBackfillsResultsOnRecover is the restart half of the
// analytics contract: a fresh store rebuilt purely from the journal
// answers queries byte-identically to the live store that watched the
// jobs complete.
func TestManagerBackfillsResultsOnRecover(t *testing.T) {
	dir := t.TempDir()
	live := results.NewStore()
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: live})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		spec := testSpec()
		spec.Seed = seed
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m1, id)
		waitRow(t, live, id)
	}
	const req = `{"group_by":["seed"],"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"},{"op":"p95","column":"delay_p95"}]}`
	before := queryJSON(t, live, req)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second life: empty in-memory store, rows rebuilt from the journal.
	rebuilt := results.NewStore()
	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: rebuilt})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st := m2.Stats()
	if st.ResultRows != 3 || st.ResultsBackfilled != 3 || st.ResultsErrors != 0 {
		t.Fatalf("backfill stats = %+v, want 3 rows all backfilled", st)
	}
	after := queryJSON(t, rebuilt, req)
	if before != after {
		t.Fatalf("backfilled store answers differently:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestManagerRecoverRetiredEngineRows: jobs that ran while the retired
// "fast" engine existed recover to the same analytics table whether the
// table file survived (its rows saying "fast") or only the journal did
// (rows rebuilt from specs saying "fast" or nothing). Both answer an
// engine-keyed query byte-identically, naming "cols".
func TestManagerRecoverRetiredEngineRows(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "results.table.json")
	s1, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: s1})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, engine := range []string{"", "fast", "des"} {
		spec := testSpec()
		spec.Seed = uint64(i + 1)
		spec.Engine = engine
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m1, id)
		waitRow(t, s1, id)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Age the table file to what the service saved before the fast
	// engine was retired: the rows of the jobs that ran on it said "fast".
	aged := strings.ReplaceAll(string(mustRead(t, table)), `"cols"`, `"fast"`)
	if err := os.WriteFile(table, []byte(aged), 0o644); err != nil {
		t.Fatal(err)
	}
	journalOnly := t.TempDir()
	copyDir(t, dir, journalOnly)
	if err := os.Remove(filepath.Join(journalOnly, "results.table.json")); err != nil {
		t.Fatal(err)
	}

	const req = `{"group_by":["engine","seed"],"aggregates":[{"op":"count"},{"op":"mean","column":"total_cost"}]}`
	answer := func(dataDir string) (string, Stats) {
		s, err := results.Open(filepath.Join(dataDir, "results.table.json"))
		if err != nil {
			t.Fatal(err)
		}
		m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dataDir, Results: s})
		if err := m.Recover(); err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown(context.Background())
		return queryJSON(t, s, req), m.Stats()
	}
	fromTable, st := answer(dir)
	if st.ResultRows != 3 || st.ResultsBackfilled != 0 {
		t.Fatalf("table-file recovery stats = %+v, want 3 loaded rows", st)
	}
	fromJournal, st := answer(journalOnly)
	if st.ResultRows != 3 || st.ResultsBackfilled != 3 {
		t.Fatalf("journal-only recovery stats = %+v, want 3 backfilled rows", st)
	}
	if fromTable != fromJournal {
		t.Fatalf("recovered tables disagree:\ntable file: %s\njournal:    %s", fromTable, fromJournal)
	}
	if strings.Contains(fromTable, "fast") || strings.Count(fromTable, `"cols"`) != 2 {
		t.Fatalf("want the two fast-era jobs grouped under cols: %s", fromTable)
	}
}

// TestManagerBackfillSkipsLoadedRows: when the store already loaded its
// rows from the table file, Recover must not double-ingest or count
// them as backfilled.
func TestManagerBackfillSkipsLoadedRows(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "results.table.json")

	s1, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	m1 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: s1})
	if err := m1.Recover(); err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m1, v.ID)
	waitRow(t, s1, v.ID)
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2, err := results.Open(table)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("table file reloaded %d rows, want 1", s2.Len())
	}
	m2 := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir, Results: s2})
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st := m2.Stats()
	if st.ResultRows != 1 || st.ResultsBackfilled != 0 || st.ResultsErrors != 0 {
		t.Fatalf("stats = %+v, want 1 loaded row and 0 backfilled", st)
	}
}
