package cluster

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite checked-in fixtures")

// TestPartialFixture pins the checked-in wire envelope CI pipes through
// schemacheck -kind partial. The contract is that the fixture decodes
// to exactly the partial a fresh worker computes for the same lease,
// spec revision included. Regenerate with -update after wire or
// engine changes.
func TestPartialFixture(t *testing.T) {
	path := filepath.Join("testdata", "partial.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(validPartialDoc(t), '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture (run with -update to create): %v", err)
	}
	var doc PartialDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got, err := doc.Decode()
	if err != nil {
		t.Fatal(err)
	}

	var fresh PartialDoc
	if err := json.Unmarshal(validPartialDoc(t), &fresh); err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checked-in partial fixture no longer decodes to a fresh worker's computation; regenerate with -update")
	}
	if doc.SpecRev != fresh.SpecRev {
		t.Fatalf("fixture spec revision %s, fresh computation %s", doc.SpecRev, fresh.SpecRev)
	}
}
