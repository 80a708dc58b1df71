// Command pcnctl is the client for the pcnserve job service:
//
//	pcnctl -addr http://localhost:8080 submit -q 0.05 -c 0.01 -U 100 -V 10 \
//	       -m 3 -terminals 50 -slots 200000 -wait > report.json
//	pcnctl submit -scenario rush-hour-hotspot -terminals 100 -slots 50000 -wait
//	pcnctl submit -scheme movement -scheme-param 6 -hetero -wait
//	pcnctl list
//	pcnctl get j000001
//	pcnctl watch j000001
//	pcnctl cancel j000001
//	pcnctl result j000001 > report.json
//	pcnctl query -where "scheme=distance" -by scenario,d -agg "count,mean(total_cost),p95(delay_p95)"
//
// submit takes pcnsim's run flags — both commands register the same
// jobs.SpecFlags set — and posts the job spec they describe; with -wait
// it follows the job's NDJSON stream, reporting progress on stderr, and
// prints the final report on stdout. The report bytes are copied verbatim from the service, so
// `pcnctl submit ... -wait` output is byte-identical to `pcnsim -json`
// run with the same configuration.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnctl: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

const usage = `usage: pcnctl [-addr URL] <command> [flags]

commands:
  submit    submit a job (flags mirror pcnsim; -wait follows it to completion)
  get       print one job document:        pcnctl get <id>
  list      print all jobs
  watch     stream a job's NDJSON frames:  pcnctl watch <id>
  cancel    cancel a job:                  pcnctl cancel <id>
  result    print a finished job's report: pcnctl result <id>
  query     aggregate stored results:      pcnctl query [-where ...] [-by ...] -agg ...
  nodes     print a coordinator's cluster document (nodes, leases)
`

// run is the testable entry point: it parses the global flags and
// dispatches the subcommand, writing documents to stdout and progress
// chatter to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	global := flag.NewFlagSet("pcnctl", flag.ContinueOnError)
	global.SetOutput(stderr)
	global.Usage = func() { fmt.Fprint(stderr, usage) }
	addr := global.String("addr", "http://localhost:8080", "pcnserve base URL")
	retries := global.Int("retries", 4,
		"retry transient connection failures (refused/reset) this many times before giving up")
	retryBase := global.Duration("retry-base", 200*time.Millisecond,
		"first retry backoff; doubles per attempt with ±50% jitter")
	if err := global.Parse(args); err != nil {
		return err
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d", *retries)
	}
	if *retryBase <= 0 {
		return fmt.Errorf("-retry-base must be positive, got %v", *retryBase)
	}
	rest := global.Args()
	if len(rest) == 0 {
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("missing command")
	}
	c := &client{
		base:      strings.TrimRight(*addr, "/"),
		retries:   *retries,
		retryBase: *retryBase,
		sleep:     time.Sleep,
	}

	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return c.submit(rest, stdout, stderr)
	case "get":
		id, err := oneID(cmd, rest)
		if err != nil {
			return err
		}
		return c.printJSON(stdout, "GET", "/api/v1/jobs/"+id, nil)
	case "list":
		return c.printJSON(stdout, "GET", "/api/v1/jobs", nil)
	case "cancel":
		id, err := oneID(cmd, rest)
		if err != nil {
			return err
		}
		return c.printJSON(stdout, "POST", "/api/v1/jobs/"+id+"/cancel", nil)
	case "watch":
		id, err := oneID(cmd, rest)
		if err != nil {
			return err
		}
		return c.watch(id, stdout, stderr)
	case "nodes":
		if len(rest) != 0 {
			return fmt.Errorf("usage: pcnctl nodes")
		}
		return c.printJSON(stdout, "GET", "/cluster", nil)
	case "result":
		id, err := oneID(cmd, rest)
		if err != nil {
			return err
		}
		return c.copyBody(stdout, "/api/v1/jobs/"+id+"/result")
	case "query":
		return c.query(rest, stdout, stderr)
	default:
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// oneID extracts the single <id> operand a command expects.
func oneID(cmd string, rest []string) (string, error) {
	if len(rest) != 1 {
		return "", fmt.Errorf("usage: pcnctl %s <job-id>", cmd)
	}
	return rest[0], nil
}

// submit parses the run flags pcnsim shares (jobs.SpecFlags) into a
// job Spec, posts it, and either prints the accepted job document or (-wait)
// follows the stream and prints the final report verbatim.
func (c *client) submit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcnctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specOf := jobs.SpecFlags(fs)
	timeoutSec := fs.Float64("timeout", 0,
		"per-job wall-clock deadline in seconds (0 = none)")
	wait := fs.Bool("wait", false,
		"follow the job to completion and print the final report on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("submit: unexpected operand %q", fs.Arg(0))
	}

	spec, err := specOf()
	if err != nil {
		return err
	}
	spec.TimeoutSec = *timeoutSec

	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := c.do("POST", "/api/v1/jobs", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	accepted, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var view jobs.View
	if err := json.Unmarshal(accepted, &view); err != nil {
		return fmt.Errorf("submit: undecodable response: %w", err)
	}
	if !*wait {
		_, err := stdout.Write(accepted)
		return err
	}

	fmt.Fprintf(stderr, "submitted %s, waiting\n", view.ID)
	state, err := c.follow(view.ID, stderr)
	if err != nil {
		return err
	}
	if state != jobs.StateDone {
		return fmt.Errorf("job %s finished %s", view.ID, state)
	}
	// The report is fetched from /result and copied verbatim: these are
	// the service's stored bytes, identical to pcnsim -json output.
	return c.copyBody(stdout, "/api/v1/jobs/"+view.ID+"/result")
}

// query builds an analytics query from the flag surface, posts it to
// /query, and prints the response document verbatim — the service's
// bytes, which are deterministic for a given stored sweep (the CI golden
// diff and restart byte-identity checks depend on that verbatim copy).
func (c *client) query(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pcnctl query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var where multiFlag
	fs.Var(&where, "where",
		"row filter `column OP value` (repeatable, ANDed; OP: = != < <= > >=)")
	by := fs.String("by", "", "comma-separated group-by columns")
	agg := fs.String("agg", "count",
		"comma-separated aggregates: count or op(column) with op mean, min, max, p50, p95, p99")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("query: unexpected operand %q", fs.Arg(0))
	}

	req := results.Request{Schema: results.QuerySchema}
	for _, w := range where {
		f, err := parseFilter(w)
		if err != nil {
			return err
		}
		req.Filter = append(req.Filter, f)
	}
	if *by != "" {
		for _, col := range strings.Split(*by, ",") {
			req.GroupBy = append(req.GroupBy, strings.TrimSpace(col))
		}
	}
	for _, a := range strings.Split(*agg, ",") {
		parsed, err := parseAggregate(a)
		if err != nil {
			return err
		}
		req.Aggregates = append(req.Aggregates, parsed)
	}
	// Validate locally for immediate, enumerate-the-valid-names errors;
	// the service re-validates anyway.
	if err := req.Validate(); err != nil {
		return err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.printJSON(stdout, "POST", "/query", body)
}

// parseFilter parses one -where operand, "column OP value". The value's
// type follows the column: string columns take the literal verbatim,
// numeric columns require a number.
func parseFilter(s string) (results.Filter, error) {
	for _, o := range []struct{ tok, op string }{
		{"<=", "le"}, {">=", "ge"}, {"!=", "ne"}, {"=", "eq"}, {"<", "lt"}, {">", "gt"},
	} {
		i := strings.Index(s, o.tok)
		if i <= 0 {
			continue
		}
		col := strings.TrimSpace(s[:i])
		val := strings.TrimSpace(s[i+len(o.tok):])
		kind, err := results.ColumnKind(col)
		if err != nil {
			return results.Filter{}, err
		}
		f := results.Filter{Column: col, Op: o.op}
		if kind == results.KindString {
			f.Value = val
		} else {
			num, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return results.Filter{}, fmt.Errorf(
					"filter %q: column %s is numeric but %q is not a number", s, col, val)
			}
			f.Value = num
		}
		return f, nil
	}
	return results.Filter{}, fmt.Errorf(
		"filter %q is not column OP value (OP: = != < <= > >=)", s)
}

// parseAggregate parses one -agg element: "count" or "op(column)".
func parseAggregate(s string) (results.Aggregate, error) {
	s = strings.TrimSpace(s)
	if s == "count" {
		return results.Aggregate{Op: "count"}, nil
	}
	op, rest, ok := strings.Cut(s, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return results.Aggregate{}, fmt.Errorf("aggregate %q is not count or op(column)", s)
	}
	return results.Aggregate{
		Op:     strings.TrimSpace(op),
		Column: strings.TrimSpace(strings.TrimSuffix(rest, ")")),
	}, nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// follow consumes a job's NDJSON stream to its terminal state,
// reattaching (bounded by -retries) when the stream drops: a crashed or
// restarting pcnserve resets the connection, and for a moment after
// restart it may 404/503 the job while journal replay rebuilds the
// table. Submitted jobs survive the crash (the durable journal
// re-enqueues them), so reattaching and waiting is the right move.
func (c *client) follow(id string, stderr io.Writer) (jobs.State, error) {
	var state jobs.State
	attached := false
	err := c.retrying(
		func(err error) bool {
			if !attached {
				// Never attached: only connection-level failures retry;
				// a 404 here means the job genuinely does not exist.
				return transient(err)
			}
			return reattachable(err)
		},
		func() error {
			var err error
			var ok bool
			state, ok, err = c.followOnce(id, stderr)
			attached = attached || ok
			if err != nil && attached {
				fmt.Fprintf(stderr, "%s: stream dropped (%v), reattaching\n", id, err)
			}
			return err
		})
	return state, err
}

// followOnce attaches to the stream once; the bool reports whether the
// attach succeeded (frames may follow), even if the stream later died.
func (c *client) followOnce(id string, stderr io.Writer) (jobs.State, bool, error) {
	resp, err := c.do("GET", "/api/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	last := jobs.State("")
	for sc.Scan() {
		var f server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return "", true, fmt.Errorf("watch %s: bad frame %q: %w", id, sc.Text(), err)
		}
		switch f.Type {
		case "state":
			fmt.Fprintf(stderr, "%s: %s\n", id, f.State)
		case "progress":
			if f.TotalTerminalSlots > 0 {
				fmt.Fprintf(stderr, "%s: %s %.1f%% (%d/%d terminal-slots)\n", id, f.State,
					100*float64(f.TerminalSlots)/float64(f.TotalTerminalSlots),
					f.TerminalSlots, f.TotalTerminalSlots)
			}
		case "result":
			if f.Error != "" {
				fmt.Fprintf(stderr, "%s: %s: %s\n", id, f.State, f.Error)
			} else {
				fmt.Fprintf(stderr, "%s: %s\n", id, f.State)
			}
			return f.State, true, nil
		}
		last = f.State
	}
	if err := sc.Err(); err != nil {
		return last, true, fmt.Errorf("watch %s: %w", id, err)
	}
	return last, true, fmt.Errorf("watch %s: %w", id, errStreamEnded)
}

// watch copies a job's NDJSON stream to stdout with the same
// reattach policy follow uses: a dropped or 404/503'd stream is
// reattached (bounded by -retries) once it had attached at all. The
// coordinator-proxied case is why: while a cluster coordinator
// re-dispatches a dead worker's slice — or restarts and replays its
// journal — the stream can drop or briefly answer 503, but the job
// itself is fine, so the watcher should ride it out.
func (c *client) watch(id string, stdout, stderr io.Writer) error {
	attached := false
	return c.retrying(
		func(err error) bool {
			if !attached {
				return transient(err)
			}
			return reattachable(err)
		},
		func() error {
			ok, err := c.watchOnce(id, stdout)
			attached = attached || ok
			if err != nil && attached {
				fmt.Fprintf(stderr, "%s: stream dropped (%v), reattaching\n", id, err)
			}
			return err
		})
}

// watchOnce attaches once, copying frames verbatim until the terminal
// result frame; the bool reports whether the attach succeeded.
func (c *client) watchOnce(id string, stdout io.Writer) (bool, error) {
	resp, err := c.do("GET", "/api/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var f server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return true, fmt.Errorf("watch %s: bad frame %q: %w", id, sc.Text(), err)
		}
		if _, err := fmt.Fprintf(stdout, "%s\n", sc.Bytes()); err != nil {
			return true, err
		}
		if f.Type == "result" {
			return true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return true, fmt.Errorf("watch %s: %w", id, err)
	}
	return true, fmt.Errorf("watch %s: %w", id, errStreamEnded)
}

// client is a minimal pcnserve API client with transient-failure
// retries; see retry.go for the policy.
type client struct {
	base      string
	hc        http.Client
	retries   int
	retryBase time.Duration
	sleep     func(time.Duration) // time.Sleep, injectable for tests
}

// do performs one request, retrying transient connection failures, and
// turns non-2xx responses into *statusError using the service's
// {"error": "..."} body. The body is taken as bytes, not a reader, so
// every retry attempt sends the complete payload.
func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	var resp *http.Response
	err := c.retrying(transient, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err = c.hc.Do(req)
		return err
	})
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var e struct {
			Error string `json:"error"`
		}
		msg := fmt.Sprintf("%s %s: %s", method, path, resp.Status)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = fmt.Sprintf("%s %s: %s (%s)", method, path, e.Error, resp.Status)
		}
		return nil, &statusError{code: resp.StatusCode, msg: msg}
	}
	return resp, nil
}

// printJSON performs a request and copies the JSON document to stdout.
func (c *client) printJSON(stdout io.Writer, method, path string, body []byte) error {
	resp, err := c.do(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(stdout, resp.Body)
	return err
}

// copyBody streams a GET response body to stdout verbatim.
func (c *client) copyBody(stdout io.Writer, path string) error {
	resp, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(stdout, resp.Body)
	return err
}
