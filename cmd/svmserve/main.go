// Command svmserve serves trained SVM models over HTTP with batched
// prediction, model hot-reload, and Prometheus-text metrics.
//
//	svmserve -addr :8080 -model svm.model
//	svmserve -model fraud=fraud.model -model spam=spam.model
//
// All task kinds serve: classifiers, epsilon-SVR regressors (labels are
// the regression value), and one-class detectors (labels are the +/-1
// inlier verdict); responses carry the task so clients decode labels
// correctly. Each endpoint's task kind is pinned at startup — reloading,
// say, an SVR file into a classifier endpoint is rejected and the previous
// snapshot keeps serving, so incremental updates (svmtrain -update-from)
// hot-reload safely in place.
//
// Endpoints:
//
//	POST /v1/predict                 JSON or libsvm rows, single or batch
//	POST /v1/models/{name}/reload    atomically re-read the model file
//	GET  /v1/models                  registered models and stats
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text format
//
// SIGINT/SIGTERM trigger graceful shutdown: the listener closes and
// in-flight requests drain before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/model"
	"repro/internal/serve"
)

// modelFlags collects repeated -model flags, each "path" (served as
// "default" for the first, the file basename for later ones) or
// "name=path".
type modelFlags []struct{ name, path string }

func (f *modelFlags) String() string { return fmt.Sprintf("%d models", len(*f)) }

func (f *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		path = v
		if len(*f) == 0 {
			name = "default"
		} else {
			name = strings.TrimSuffix(strings.TrimSuffix(pathBase(path), ".model"), ".txt")
		}
	}
	if name == "" || path == "" {
		return fmt.Errorf("want -model path or -model name=path, got %q", v)
	}
	*f = append(*f, struct{ name, path string }{name, path})
	return nil
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "svmserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var models modelFlags
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "prediction worker pool size (0 = GOMAXPROCS)")
		maxBatch = flag.Int("max-batch", 4096, "max rows per predict request")
		drain    = flag.Duration("drain", 0, "graceful shutdown drain timeout (0 = 10s default)")

		batchWindow = flag.Duration("batch-window", 0, "coalescing window for single-row predictions (0 = 2ms default)")
		batchMax    = flag.Int("batch-size", 0, "max rows coalesced into one evaluation (0 = 32 default)")
		queueDepth  = flag.Int("queue", 0, "outstanding rows per model before shedding (0 = 1024 default)")
		maxInflight = flag.Int("max-inflight", 0, "concurrently executing batches per model (0 = 2 default)")
		reqTimeout  = flag.Duration("request-timeout", 0, "deadline applied to single-row requests without one (0 = none)")
		packBudget  = flag.Int64("pack-budget", model.DefaultPackBudget,
			"pack the support vectors of models whose dense block fits this many bytes (0 disables)")
	)
	flag.Var(&models, "model", "model file to serve: path or name=path (repeatable)")
	flag.Parse()
	if len(models) == 0 {
		return fmt.Errorf("at least one -model is required")
	}

	reg := serve.NewRegistry()
	reg.SetPackBudget(*packBudget)
	for _, m := range models {
		if err := reg.Add(m.name, m.path); err != nil {
			return err
		}
		snap, _ := reg.Get(m.name)
		log.Printf("loaded model %q from %s (%d SVs, kernel %s, calibrated=%v, packed=%v)",
			m.name, m.path, snap.Model.NumSV(), snap.Model.Kernel, snap.Model.HasProb, snap.Packed)
	}

	srv := serve.New(reg, serve.Config{
		Workers:        *workers,
		MaxBatch:       *maxBatch,
		DrainTimeout:   *drain,
		CoalesceWindow: *batchWindow,
		CoalesceBatch:  *batchMax,
		QueueDepth:     *queueDepth,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("serving %d model(s) on %s", reg.Len(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("shutdown signal received, draining in-flight requests")
	}()
	if err := srv.Serve(ctx, ln); err != nil {
		return err
	}
	log.Print("drained cleanly, bye")
	return nil
}
