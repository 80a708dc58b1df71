package jobs

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// submitFailedSync submits spec through a journal whose fsync fails
// after its write succeeded, and fails the test if the submission is
// accepted. The journal's file is swapped for the write end of a pipe
// (fsync on a pipe fails with EINVAL), whose bytes are copied into the
// journal file, so the record lands in the file exactly as a write that
// outlived a failed fsync would. The file is back in place, positioned
// at its end, when it returns.
func submitFailedSync(t *testing.T, m *Manager, spec Spec) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst, err := os.OpenFile(m.journalPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	copied := make(chan error, 1)
	go func() {
		_, err := io.Copy(dst, r)
		copied <- err
	}()

	m.mu.Lock()
	file := m.journal.f
	m.journal.f = w
	m.mu.Unlock()
	_, submitErr := m.Submit(spec)
	w.Close()
	if err := <-copied; err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := file.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.journal.f = file
	m.mu.Unlock()
	if submitErr == nil {
		t.Fatal("a submission whose fsync failed was accepted")
	}
}

// TestManagerSubmitIDNotReusedAfterFailedSync: a submission refused
// because its journal fsync failed has still written its record, so its
// id is spent and the next accepted submission gets another one.
func TestManagerSubmitIDNotReusedAfterFailedSync(t *testing.T) {
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: t.TempDir()})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	refused := testSpec()
	refused.Seed = 999
	submitFailedSync(t, m, refused)
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "j000001" {
		t.Fatalf("accepted submission reused the refused submission's id %s", v.ID)
	}
	if got := waitTerminal(t, m, v.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}
}

// TestManagerReplayKeepsAckedSpecAfterFailedSync: a journal holding a
// refused submission's record (write landed, fsync failed) followed by
// an accepted job replays the accepted job with its own spec and report,
// not the refused one's.
func TestManagerReplayKeepsAckedSpecAfterFailedSync(t *testing.T) {
	dir := t.TempDir()
	m := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	refused := testSpec()
	refused.Seed = 999
	submitFailedSync(t, m, refused)
	acked := testSpec()
	v, err := m.Submit(acked)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, v.ID); got.State != StateDone {
		t.Fatalf("job ended %s (%s)", got.State, got.Error)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journal, []byte(`"seed":999`)) {
		t.Fatal("the refused submission's record is not in the journal; the case covers nothing")
	}

	re := New(Options{QueueDepth: 4, Workers: 1, DataDir: dir})
	if err := re.Recover(); err != nil {
		t.Fatal(err)
	}
	defer re.Shutdown(context.Background())
	got, err := re.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Spec.Seed != acked.Seed {
		t.Fatalf("acked job %s replayed %s with seed %d, want done with seed %d",
			v.ID, got.State, got.Spec.Seed, acked.Seed)
	}
	res, err := re.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res, referenceResult(t, acked)) {
		t.Error("acked job's replayed report differs from its spec's engine reference")
	}
}
