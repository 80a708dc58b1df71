package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
)

func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("POST %s: status %d with an undecodable body: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, doc["error"]
}

// TestRequestBodyLimits: a body past its endpoint's limit is refused
// with 413 before it is decoded, and a cluster request with a field its
// schema lacks is refused with 400 — never a 5xx.
func TestRequestBodyLimits(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.NewRegistry(time.Minute, nil), cluster.Options{})
	srv, _ := newTestServer(t, jobs.Options{Runner: coord},
		Options{Cluster: coord, Results: results.NewStore()})

	huge := func(field string, limit int) string {
		return `{"` + field + `":"` + strings.Repeat("a", limit) + `"}`
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"oversized submit", "/api/v1/jobs", huge("model", maxRequestBody), http.StatusRequestEntityTooLarge},
		{"oversized register", "/api/v1/cluster/register", huge("addr", maxClusterBody), http.StatusRequestEntityTooLarge},
		{"oversized heartbeat", "/api/v1/cluster/heartbeat", huge("id", maxClusterBody), http.StatusRequestEntityTooLarge},
		{"oversized query", "/query", huge("where", maxRequestBody), http.StatusRequestEntityTooLarge},
		{"unknown register field", "/api/v1/cluster/register",
			`{"schema":1,"addr":"http://127.0.0.1:1","token":"x"}`, http.StatusBadRequest},
		{"unknown heartbeat field", "/api/v1/cluster/heartbeat",
			`{"schema":1,"id":"n001","load":3}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, msg := postRaw(t, srv.URL+tc.path, tc.body)
			if status != tc.want {
				t.Fatalf("status %d (%s), want %d", status, msg, tc.want)
			}
		})
	}
	if nodes := len(coord.Registry().Alive()); nodes != 0 {
		t.Fatalf("a refused register request joined %d node(s)", nodes)
	}
}

// TestResultUnreadableIs500: a done job whose journaled report fails its
// checksum answers 500 with the named error, never other bytes.
func TestResultUnreadableIs500(t *testing.T) {
	dir := t.TempDir()
	srv, mgr := newTestServer(t, jobs.Options{DataDir: dir}, Options{})
	if err := mgr.Recover(); err != nil {
		t.Fatal(err)
	}
	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d %s", status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, srv.URL, v.ID); final.State != jobs.StateDone {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	// Damage the only result record: overwrite its base64 payload.
	path := filepath.Join(dir, "journal.ndjson")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := strings.Index(string(data), `"kind":"result"`)
	if at < 0 {
		t.Fatal("journal has no result record")
	}
	data[at+len(`"kind":"result"`)+40] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	status, raw = doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+v.ID+"/result", nil)
	if status != http.StatusInternalServerError || !strings.Contains(string(raw), "journaled result unreadable") {
		t.Fatalf("result of a damaged record: %d %s, want 500 naming the error", status, raw)
	}
	_ = mgr.Shutdown(context.Background())
}
