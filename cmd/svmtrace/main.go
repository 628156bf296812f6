// Command svmtrace inspects a recorded training trace (svmtrain -trace)
// and evaluates it under the cluster performance model at chosen process
// counts — the offline half of the reproduction pipeline.
//
//	svmtrain -dataset forest -dataset-scale 0.005 -trace forest.json -p 1
//	svmtrace -in forest.json                       # schedule summary
//	svmtrace -in forest.json -p 64,256,1024 -lambda 4.2e-7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/perfmodel"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svmtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "trace JSON file (from svmtrain -trace)")
		pList   = flag.String("p", "", "comma-separated process counts to model (empty = summary only)")
		lambda  = flag.Float64("lambda", 1e-7, "kernel evaluation cost in seconds (calibrate with svmbench -v)")
		scaleUp = flag.Float64("scale-up", 1, "extrapolate the schedule to scale-up x the recorded size")
	)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Load(f)
	if err != nil {
		return err
	}
	if *scaleUp != 1 {
		tr = tr.ScaledUp(*scaleUp)
	}

	fmt.Printf("trace: dataset=%s heuristic=%s N=%d eps=%g\n", tr.Dataset, tr.Heuristic, tr.N, tr.Eps)
	fmt.Printf("run:   %d iterations, converged=%v, %d SVs (%.1f%%), %d shrink checks, %d reconstructions\n",
		tr.Iterations, tr.Converged, tr.SVCount, 100*float64(tr.SVCount)/float64(max(1, tr.N)),
		tr.ShrinkChecks, len(tr.Recons))
	fmt.Printf("mean active fraction: %.1f%%\n", 100*tr.MeanActiveFraction())
	fmt.Println("active-set schedule:")
	tr.EachSegment(func(active int, iters int64) {
		fmt.Printf("  %9d iterations at %8d active (%.1f%%)\n", iters, active, 100*float64(active)/float64(tr.N))
	})
	for _, r := range tr.Recons {
		fmt.Printf("  reconstruction at iteration %d: %d stale gradients rebuilt from %d SVs\n", r.Iter, r.Shrunk, r.SVs)
	}

	if *pList == "" {
		return nil
	}
	machine := perfmodel.Cascade(*lambda, tr.AvgNNZ)
	fmt.Printf("\nmodeled on InfiniBand-FDR-class cluster (lambda=%.3gs):\n", *lambda)
	fmt.Printf("%8s %12s %10s %10s %10s %12s\n", "procs", "total(s)", "compute", "comm", "recon", "recon-share")
	for _, part := range strings.Split(*pList, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return fmt.Errorf("bad process count %q", part)
		}
		b, err := perfmodel.Evaluate(tr, p, machine)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %12.3f %10.3f %10.3f %10.3f %11.1f%%\n",
			p, b.Total(), b.Compute, b.ReduceComm, b.ReconCompute+b.ReconComm,
			100*b.ReconFraction())
	}
	return nil
}
