package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and this program's workload and
// metric tables identical, and within the limits the file's format sets.
func TestBenchmarkJSON(t *testing.T) {
	f := loadBenchmark(t)
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 ||
		len(f.PerLayer) < 1 || len(f.PerLayer) > 128 || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("BENCHMARK.json sizes out of range: %d workloads, %d end-to-end, %d per-layer, run_seconds %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), f.RunSeconds)
	}
	for _, w := range f.Workloads {
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q malformed", d.Name, d.Unit, d.Better)
		}
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, tc := range []struct {
		kind      string
		json, got []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", tc.kind, len(tc.json), len(tc.got))
			continue
		}
		for i := range tc.json {
			if tc.json[i] != tc.got[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", tc.kind, i, tc.json[i], tc.got[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, n := range append(append(names(f.EndToEnd), names(f.PerLayer)...), workloadNames()...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

// lastLine runs the program and decodes the JSON object on its last
// output line.
func lastLine(t *testing.T, args ...string) (map[string]any, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("svmperf %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, out.String()
}

// TestSmoke runs every workload at a tenth of its size, untraced and
// traced, and checks the result line: correct, nothing failed, and exactly
// the metric names BENCHMARK.json declares for the mode, with numbers.
func TestSmoke(t *testing.T) {
	f := loadBenchmark(t)
	defer func(n int) { setups = n }(setups)
	setups = 1
	start := time.Now()
	tmp := t.TempDir()
	for _, tc := range []struct {
		trace string
		want  []string
	}{{"0", names(f.EndToEnd)}, {"1", names(f.PerLayer)}} {
		for _, w := range workloadNames() {
			res, out := lastLine(t, "-workload", w, "-seed", "2", "-scale", "0.1", "-seconds", "0.3",
				"-trace", tc.trace, "-tmp", tmp)
			if res["correct"] != true || res["failed"] != 0.0 || res["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%s: %v\n%s", w, tc.trace, res, out)
			}
			var got []string
			for n, v := range res["metrics"].(map[string]any) {
				got = append(got, n)
				m := v.(map[string]any)
				if m["unit"] == "" {
					t.Errorf("%s: metric %s has no unit", w, n)
				}
				// End-to-end metrics are never 0: a 0 means nothing was measured.
				if x, ok := m["value"].(float64); !ok || (tc.trace == "0" && x <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v", w, n, m["value"])
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("%s trace=%s: emitted %v, BENCHMARK.json declares %v", w, tc.trace, got, tc.want)
			}
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("smoke run took %v, want under 30s", d)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("scratch files left behind: %v", left)
	}
}
