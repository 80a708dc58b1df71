package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/server"
)

// driver issues the workload's operations against one system, the way
// pcnctl submit -wait does, and checks every result. It is safe for use
// by several clients at once.
type driver struct {
	hc   *http.Client
	url  string
	prep *prepared
	tr   *tracer // nil in an untraced run

	mu        sync.Mutex
	attempted int
	failures  []string
}

// jobSample is one measured job.
type jobSample struct {
	id       string
	spec     int
	total    int64 // submit to result bytes, ns
	streamID int64 // the http.stream span, parent of the manager spans
}

// fail records one failed operation.
func (d *driver) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failures = append(d.failures, err.Error())
}

func (d *driver) attempt() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempted++
}

// job submits spec k, follows its stream to the terminal frame, fetches
// the result and checks it byte-for-byte against the reference. A
// refused submission, any non-2xx answer, a stream error, a timeout or
// a mismatch is a failed operation.
func (d *driver) job(ctx context.Context, k int) (jobSample, error) {
	d.attempt()
	s, err := d.runJob(ctx, k)
	if err != nil {
		d.fail(err)
	}
	return s, err
}

func (d *driver) runJob(ctx context.Context, k int) (jobSample, error) {
	t0 := time.Now()
	var v jobs.View
	if err := d.post(ctx, "/api/v1/jobs", d.prep.bodies[k], http.StatusAccepted, &v); err != nil {
		return jobSample{}, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	if err := d.follow(ctx, v.ID); err != nil {
		return jobSample{}, fmt.Errorf("job %s stream: %w", v.ID, err)
	}
	t2 := time.Now()
	raw, err := d.get(ctx, "/api/v1/jobs/"+v.ID+"/result")
	if err != nil {
		return jobSample{}, fmt.Errorf("job %s result: %w", v.ID, err)
	}
	t3 := time.Now()
	if !bytes.Equal(raw, d.prep.refs[k]) {
		return jobSample{}, fmt.Errorf("job %s: result differs from the reference report of spec %d", v.ID, k)
	}
	s := jobSample{id: v.ID, spec: k, total: int64(t3.Sub(t0))}
	root := d.tr.add(0, "job", v.ID, t0, t3)
	d.tr.add(root, "http.submit", v.ID, t0, t1)
	s.streamID = d.tr.add(root, "http.stream", v.ID, t1, t2)
	d.tr.add(root, "http.result", v.ID, t2, t3)
	return s, nil
}

// query sends the sweep query and returns its round trip in nanoseconds.
func (d *driver) query(ctx context.Context) (int64, error) {
	d.attempt()
	t0 := time.Now()
	var resp results.Response
	err := d.post(ctx, "/query", queryBody, http.StatusOK, &resp)
	if err == nil && (resp.Schema != results.QuerySchema || resp.RowsScanned == 0 || len(resp.Groups) == 0) {
		err = fmt.Errorf("query answered schema %d over %d rows in %d groups", resp.Schema, resp.RowsScanned, len(resp.Groups))
	}
	t1 := time.Now()
	if err != nil {
		d.fail(fmt.Errorf("query: %w", err))
		return 0, err
	}
	d.tr.add(0, "http.query", "", t0, t1)
	return int64(t1.Sub(t0)), nil
}

func (d *driver) post(ctx context.Context, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (d *driver) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// follow reads the job's NDJSON stream up to its result frame, which
// must report the job done.
func (d *driver) follow(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/api/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20) // a result frame embeds the report
	for sc.Scan() {
		var f server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return err
		}
		if f.Type != "result" {
			continue
		}
		if f.State != jobs.StateDone {
			return fmt.Errorf("job ended %s: %s", f.State, f.Error)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// views fetches every job's view once the load has stopped, for the
// manager's queue-wait and run times.
func (d *driver) views(ctx context.Context) (map[string]jobs.View, error) {
	raw, err := d.get(ctx, "/api/v1/jobs")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Jobs []jobs.View `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := make(map[string]jobs.View, len(doc.Jobs))
	for _, v := range doc.Jobs {
		out[v.ID] = v
	}
	return out, nil
}

// phase is what the measured load produced.
type phase struct {
	jobs    []jobSample
	queries []float64 // round trips, ns
	wall    time.Duration
}

// minRounds is the fewest query rounds (of queryEvery jobs each) every
// client runs however short the time box, so every timing has samples.
const minRounds = 3

// load runs the workload's closed-loop clients until the time box ends
// (and each client has run minRounds query rounds). Client c runs specs c,
// c+clients, … cyclically, so together the clients cover every spec.
func (d *driver) load(ctx context.Context, w workload, box time.Duration) phase {
	var (
		mu sync.Mutex
		ph phase
		wg sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				if i >= minRounds*w.queryEvery && time.Since(start) >= box {
					return
				}
				s, err := d.job(ctx, (c+i*w.clients)%len(d.prep.specs))
				var qs []float64
				for b := 0; err == nil && (i+1)%w.queryEvery == 0 && b < w.queryBurst; b++ {
					var q int64
					if q, err = d.query(ctx); err == nil {
						qs = append(qs, float64(q))
					}
				}
				mu.Lock()
				if s.id != "" {
					ph.jobs = append(ph.jobs, s)
				}
				ph.queries = append(ph.queries, qs...)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	return ph
}

// warm runs one job per client, concurrently, as the end of set-up.
func (d *driver) warm(ctx context.Context, w workload) error {
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = d.job(ctx, c%len(d.prep.specs))
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
