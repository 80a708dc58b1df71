package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

// workload is one traffic mix against one shape of the service stack.
// Sizes are for scale 1; the smoke test divides populations and table
// sizes by its scale so every workload runs in well under a second.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients, each submitting its
	// next job only when the previous one has returned its result.
	clients int
	// queryEvery and queryBurst make each client send queryBurst POST
	// /query requests after every queryEvery-th job.
	queryEvery int
	queryBurst int
	// cluster runs jobs on a coordinator with two loopback workers
	// instead of a single node.
	cluster bool
	// dataDir gives the manager a data directory: fsync'd journal and a
	// persisted results table, as pcnserve -data-dir does.
	dataDir bool
	// checkpointEvery is the manager's checkpoint cadence in slots.
	checkpointEvery int64
	// preloadRows and historyJobs fill the data directory before set-up:
	// rows already in the results table, and done jobs already in the
	// journal (with their rows in the table).
	preloadRows int
	historyJobs int
	// specs returns the distinct job specs; clients cycle through them.
	specs func(seed uint64, scale int) []jobs.Spec
}

// queryBursts is the burst size of the one-client workloads. The first
// query after a job waits for that job's results ingest, which holds the
// store's write lock, and takes about twice as long as the rest. At eight
// a burst the waiting queries are one in eight, well above the 75th
// percentile; at four, query_ms_p75 would sit on the edge between the two
// kinds and move by up to a third from run to run.
const queryBursts = 8

// workloads is the benchmark's fixed set, in run order.
var workloads = []workload{
	{
		name:       "bulk",
		why:        "250k-terminal jobs on a plain node: the engine hot loop is over 90% of each job, so engine changes show here and service-layer changes should not",
		clients:    1,
		queryEvery: 1,
		queryBurst: queryBursts,
		specs: func(seed uint64, scale int) []jobs.Spec {
			return []jobs.Spec{paperSpec(250_000/scale, 256, 2, 0, seed*1000)}
		},
	},
	{
		name:        "service",
		why:         "2 clients of 2000-terminal jobs on a durable node with a 5000-row results table: journal fsync, table rewrite, HTTP and queueing dominate",
		clients:     2,
		queryEvery:  4,
		queryBurst:  1,
		dataDir:     true,
		preloadRows: 5000,
		specs: func(seed uint64, scale int) []jobs.Spec {
			specs := make([]jobs.Spec, 16)
			for i := range specs {
				specs[i] = paperSpec(2000/scale, 64, 1, 0, seed*1000+uint64(i))
			}
			return specs
		},
	},
	{
		name:       "cluster",
		why:        "coordinator plus 2 loopback workers on 50k-terminal jobs with telemetry: partial encode/decode, lease streams and the merge dominate",
		clients:    1,
		queryEvery: 1,
		queryBurst: queryBursts,
		cluster:    true,
		specs: func(seed uint64, scale int) []jobs.Spec {
			return []jobs.Spec{paperSpec(50_000/scale, 256, 4, 16, seed*1000)}
		},
	},
	{
		name:            "durable",
		why:             "checkpoint every 64 slots on 100k-terminal jobs, on a node that recovered a 2000-job journal at set-up: checkpoint encode and fsync dominate",
		clients:         1,
		queryEvery:      1,
		queryBurst:      queryBursts,
		dataDir:         true,
		checkpointEvery: 64,
		historyJobs:     2000,
		specs: func(seed uint64, scale int) []jobs.Spec {
			return []jobs.Spec{paperSpec(100_000/scale, 256, 2, 0, seed*1000)}
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// paperSpec is a job at the paper's Table parameter point: 2-D grid,
// q=0.05, c=0.01, U=100, V=10, m=3, static threshold 3. The engine is
// left empty so the benchmark measures the default users get.
func paperSpec(terminals int, slots int64, shards int, snapshotEvery int64, seed uint64) jobs.Spec {
	d := 3
	return jobs.Spec{
		Model:         "2d",
		MoveProb:      0.05,
		CallProb:      0.01,
		UpdateCost:    100,
		PollCost:      10,
		MaxDelay:      3,
		Threshold:     &d,
		Terminals:     max(terminals, shards),
		Slots:         slots,
		Shards:        shards,
		SnapshotEvery: snapshotEvery,
		Seed:          seed,
	}
}

// queryBody is the sweep query every workload's clients send.
var queryBody = []byte(`{"group_by":["d","seed"],"aggregates":[{"op":"count"},{"op":"p95","column":"total_cost"},{"op":"mean","column":"delay_mean"}]}`)

// prepared is everything a workload needs before its system is set up.
// Making it is the benchmark's own work and is not part of setup_s.
type prepared struct {
	specs  []jobs.Spec
	bodies [][]byte // submit request bodies, one per spec
	// refs holds each spec's expected report bytes: what pcnsim -json
	// prints, computed through the library.
	refs    [][]byte
	reports []*locman.Report
	// seedDir is the data directory template each set-up copies, or ""
	// when the workload runs without one.
	seedDir string
}

// prepare computes the references and fills the data directory
// template under work.
func prepare(ctx context.Context, w workload, seed uint64, scale int, work string) (*prepared, error) {
	p := &prepared{specs: w.specs(seed, scale)}
	for i, s := range p.specs {
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		report, raw, err := direct(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("reference run of spec %d: %w", i, err)
		}
		p.bodies = append(p.bodies, body)
		p.refs = append(p.refs, raw)
		p.reports = append(p.reports, report)
	}
	if !w.dataDir {
		return p, nil
	}
	p.seedDir = filepath.Join(work, "seed")
	if err := os.MkdirAll(p.seedDir, 0o755); err != nil {
		return nil, err
	}
	table := results.NewStore()
	for i := 0; i < w.preloadRows/scale; i++ {
		k := i % len(p.specs)
		if err := ingest(table, fmt.Sprintf("h%06d", i+1), p.specs[k], p.reports[k]); err != nil {
			return nil, err
		}
	}
	if n := w.historyJobs / scale; n > 0 {
		if err := writeHistory(ctx, table, p.seedDir, seed, n); err != nil {
			return nil, err
		}
	}
	return p, table.Save(filepath.Join(p.seedDir, tableFile))
}

// Data directory layout, as pcnserve -data-dir lays it out.
const (
	journalFile = "journal.ndjson"
	tableFile   = "results.table.json"
)

// direct runs one spec through the library exactly as pcnsim -json does
// and returns the report and its bytes.
func direct(ctx context.Context, s jobs.Spec) (*locman.Report, []byte, error) {
	cfg, err := s.NetworkConfig()
	if err != nil {
		return nil, nil, err
	}
	m, err := locman.SimulateNetworkShardedCtx(ctx, cfg, s.Slots, s.Shards)
	if err != nil {
		return nil, nil, err
	}
	report := locman.NewReport(m)
	raw, err := encodeReport(report)
	return report, raw, err
}

// encodeReport is pcnsim -json's encoding: two-space indent, trailing
// newline.
func encodeReport(r *locman.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func ingest(table *results.Store, id string, s jobs.Spec, r *locman.Report) error {
	row, err := jobs.ResultRow(id, s, r)
	if err != nil {
		return err
	}
	return table.Ingest(row)
}

// writeHistory journals n done 50-terminal × 8-slot jobs into dir, with
// the lifecycle records the manager writes, and adds their rows to
// table.
func writeHistory(ctx context.Context, table *results.Store, dir string, seed uint64, n int) error {
	jl, _, err := jobs.OpenJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return err
	}
	defer jl.Close()
	for i := 1; i <= n; i++ {
		s := paperSpec(50, 8, 1, 0, seed*1_000_000+uint64(i))
		report, raw, err := direct(ctx, s)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("j%06d", i)
		for _, rec := range []jobs.Record{
			{Kind: jobs.KindSubmit, Job: id, Spec: &s},
			{Kind: jobs.KindState, Job: id, From: jobs.StateQueued, To: jobs.StateRunning},
			{Kind: jobs.KindResult, Job: id, Result: raw},
			{Kind: jobs.KindState, Job: id, From: jobs.StateRunning, To: jobs.StateDone},
		} {
			if err := jl.Append(rec); err != nil {
				return err
			}
		}
		if err := ingest(table, id, s, report); err != nil {
			return err
		}
	}
	return nil
}

// copyDir copies the regular files of src (one level, as a data
// directory template holds) into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
