package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagValidation is the table-driven error-path coverage for the
// CLI surface: every rejected flag must fail with a message naming it.
func TestRunFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown model", []string{"-model", "3d"}, "unknown model"},
		{"unknown method", []string{"-method", "magic"}, "unknown method"},
		{"unknown scheme", []string{"-scheme", "psychic"}, "psychic"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"bad probability", []string{"-q", "1.5", "-c", "0.6"}, "q"},
		{"map on 1d", []string{"-model", "1d", "-q", "0.1", "-c", "0.05",
			"-m", "2", "-maxd", "5", "-map", "out.svg"}, "2-D"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, &strings.Builder{})
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunGolden pins the full text report of a small deterministic
// optimization — the analytical pipeline is exact, so every digit is
// stable.
func TestRunGolden(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "1d", "-q", "0.1", "-c", "0.05",
		"-U", "10", "-V", "1", "-m", "2", "-maxd", "10"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	want := `model           1d
q, c            0.1, 0.05
U, V            10, 1
max delay       2 polling cycles
partition       sdf
optimal d*      3
update cost     0.022222 per slot
paging cost     0.185556 per slot
total cost      0.207778 per slot
expected delay  1.178 cycles (worst case 2)
evaluations     11
`
	if b.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRunCurveMarksOptimum checks -curve prints the scanned curve with
// the optimum marked.
func TestRunCurveMarksOptimum(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "1d", "-q", "0.1", "-c", "0.05",
		"-U", "10", "-V", "1", "-m", "2", "-maxd", "10", "-curve"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "d  C_T(d)") {
		t.Fatal("curve header missing")
	}
	if !strings.Contains(out, "<-- d*") {
		t.Error("optimum not marked on the curve")
	}
}

// TestRunWritesMap checks the -map path produces an SVG document.
func TestRunWritesMap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.svg")
	var b strings.Builder
	err := run([]string{"-q", "0.1", "-c", "0.05", "-U", "10", "-V", "1",
		"-m", "2", "-maxd", "5", "-map", path}, &b)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("map output is not an SVG document")
	}
	if !strings.Contains(b.String(), "paging plan map written") {
		t.Error("map confirmation line missing")
	}
}

// TestRunGroupedReportsAndMapsPricedPlan checks that -method grouped
// names the probability-ordered plan it prices and that -map draws that
// plan, not the -scheme partition: at this point d* = 6 and the priced
// plan polls rings 0–3 in cycle 1 and rings 4–6 in cycle 2 (SDF would
// split after ring 2).
func TestRunGroupedReportsAndMapsPricedPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.svg")
	var b strings.Builder
	err := run([]string{"-method", "grouped", "-model", "2d", "-q", "0.3", "-c", "0.001",
		"-m", "2", "-map", path}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"partition       prob-order\n", "optimal d*      6\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Ring→cycle [0 0 0 0 1 1 1]: 1+6+12+18 = 37 cells in the first
	// cycle's colour, 24+30+36 = 90 in the second's.
	cycleCells := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "<polygon") {
			fill := line[strings.Index(line, `fill="`)+6:]
			cycleCells[fill[:strings.Index(fill, `"`)]]++
		}
	}
	if got, want := cycleCells["#c6dbef"], 37; got != want {
		t.Errorf("map paints %d cells in cycle 1, want %d (%v)", got, want, cycleCells)
	}
	if got, want := cycleCells["#9ecae1"], 90; got != want {
		t.Errorf("map paints %d cells in cycle 2, want %d (%v)", got, want, cycleCells)
	}
	if !strings.Contains(string(data), "(prob-order)") {
		t.Error("map title does not name the priced plan")
	}
}
