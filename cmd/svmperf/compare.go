package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares the runs of one metric on one workload, base against
// head, by the rule of choosing-metrics §8:
//
//   - when the base runs spread (q3-q1 over the median) wider than the
//     bound, no median comparison is trusted: head is better only if every
//     head run beats every base run, worse only if every base run beats
//     every head run, and otherwise unresolved;
//   - otherwise head is worse when its median is worse than base's by more
//     than the bound;
//   - and better when its median beats base's by more than base's own
//     quartile distance and it wins at least nine tenths of the run pairs
//     (runs paired in seed order, ties counting for neither);
//   - anything else is unchanged.
//
// change is head's relative worsening of the median (negative when better).
func judge(d metricDef, base, head []float64) (verdict string, change float64) {
	sign := 1.0 // +1 when larger is worse
	if d.Better == "higher" {
		sign = -1
	}
	bq1, bm, bq3 := quartiles(base)
	_, hm, _ := quartiles(head)
	scale := math.Abs(bm)
	if scale == 0 {
		scale = 1
	}
	change = sign * (hm - bm) / scale
	spread := (bq3 - bq1) / scale

	worst := func(xs []float64) float64 { // the run that reads worst
		w := xs[0]
		for _, x := range xs {
			if sign*x > sign*w {
				w = x
			}
		}
		return w
	}
	bestOf := func(xs []float64) float64 {
		b := xs[0]
		for _, x := range xs {
			if sign*x < sign*b {
				b = x
			}
		}
		return b
	}
	allBetter := sign*worst(head) < sign*bestOf(base)
	allWorse := sign*bestOf(head) > sign*worst(base)

	switch {
	case spread > d.Bound:
		switch {
		case allBetter:
			return better, change
		case allWorse:
			return worse, change
		}
		return unresolved, change
	case change > d.Bound:
		return worse, change
	case -change*scale > bq3-bq1 && winShare(sign, base, head) >= 0.9:
		return better, change
	}
	return unchanged, change
}

// winShare is the fraction of run pairs (base[i], head[i]) in which head
// reads better; ties count for neither side.
func winShare(sign float64, base, head []float64) float64 {
	n := min(len(base), len(head))
	if n == 0 {
		return 0
	}
	wins := 0
	for i := 0; i < n; i++ {
		if sign*head[i] < sign*base[i] {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// runSet is the untraced runs of one file, by workload.
type runSet struct {
	runs              map[string][]result // sorted by seed
	attempted, failed map[string]int
}

func readRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &runSet{runs: map[string][]result{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for line := 1; sc.Scan(); line++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue
		}
		s.runs[r.Workload] = append(s.runs[r.Workload], r)
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, rs := range s.runs {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Env.Seed < rs[j].Env.Seed })
	}
	return s, nil
}

func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.runs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func (s *runSet) failFrac(workload string) float64 {
	return float64(s.failed[workload]) / float64(max(1, s.attempted[workload]))
}

// compareFiles prints, for every workload and end-to-end metric both files
// measured, the two medians and quartiles and a verdict. It exits 1 when
// any verdict is worse or head failed a larger share of its operations.
func compareFiles(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readRuns(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "svmperf: %v\n", err)
		return 2
	}
	head, err := readRuns(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "svmperf: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-22s %-14s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1, q3] (runs)", "head median [q1, q3] (runs)", "change", "verdict")
	for _, w := range workloadNames() {
		if len(base.runs[w]) == 0 || len(head.runs[w]) == 0 {
			continue
		}
		for _, d := range endToEnd {
			b, h := base.values(w, d.Name), head.values(w, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, change := judge(d, b, h)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-22s %-14s %-36s %-36s %+7.1f%%  %s (bound %.0f%%)\n",
				w, d.Name, summary(b), summary(h), 100*change, v, 100*d.Bound)
		}
		bf, hf := base.failFrac(w), head.failFrac(w)
		verdict := "ok"
		if hf > bf {
			verdict = "WORSE"
			code = 1
		}
		fmt.Fprintf(stdout, "%-22s %-14s %-36.6g %-36.6g %8s  %s\n", w, "fail_frac", bf, hf, "", verdict)
	}
	return code
}

func summary(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", m, q1, q3, len(xs))
}
