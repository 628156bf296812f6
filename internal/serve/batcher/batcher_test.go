package batcher_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/batcher"
	"repro/internal/sparse"
)

// testModel builds a tiny 2-SV RBF model whose decision function shifts
// with beta, so predictions identify the model version that produced them.
func testModel(beta float64) *model.Model {
	b := sparse.NewBuilder(2)
	b.AddRow([]int32{0}, []float64{-1})
	b.AddRow([]int32{0, 1}, []float64{1, 0.5})
	return &model.Model{
		Kernel:       kernel.Params{Type: kernel.Gaussian, Gamma: 1},
		C:            10,
		SV:           b.Build(),
		Coef:         []float64{-1, 1},
		Beta:         beta,
		TrainSamples: 2,
	}
}

func fixedSource(m *model.Model, version uint64) batcher.Source {
	m.WarmNorms()
	return func() (*model.Model, uint64) { return m, version }
}

var queryRow = sparse.Row{Idx: []int32{0, 1}, Val: []float64{0.25, 0.75}}

func TestCoalescesUnderConcurrency(t *testing.T) {
	m := testModel(0.1)
	want := m.DecisionValue(queryRow)
	var maxBatch atomic.Int64
	b := batcher.New(fixedSource(m, 7), batcher.Config{
		MaxBatch: 16,
		MaxWait:  5 * time.Millisecond,
		OnBatch: func(size int, _, _ time.Duration) {
			for {
				cur := maxBatch.Load()
				if int64(size) <= cur || maxBatch.CompareAndSwap(cur, int64(size)) {
					return
				}
			}
		},
	})
	defer b.Close()

	const clients = 32
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := b.Predict(context.Background(), queryRow)
			if err != nil {
				errs[g] = err
				return
			}
			if math.Float64bits(res.Decision) != math.Float64bits(want) {
				errs[g] = fmt.Errorf("decision %v, want %v", res.Decision, want)
			}
			if res.Version != 7 {
				errs[g] = fmt.Errorf("version %d, want 7", res.Version)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	if maxBatch.Load() < 2 {
		t.Fatalf("32 concurrent predictions never coalesced (max batch %d)", maxBatch.Load())
	}
	if d := b.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after all answers, want 0", d)
	}
}

func TestWindowClosesOnMaxWait(t *testing.T) {
	b := batcher.New(fixedSource(testModel(0), 1), batcher.Config{
		MaxBatch: 1024,
		MaxWait:  5 * time.Millisecond,
	})
	defer b.Close()
	t0 := time.Now()
	if _, err := b.Predict(context.Background(), queryRow); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 500*time.Millisecond {
		t.Fatalf("lone request waited %v; the window never closed on MaxWait", took)
	}
}

func TestQueueFullRejects(t *testing.T) {
	// A gate that never admits leaves two one-row batches stuck executing;
	// with Queue=2 the third submission must bounce with ErrQueueFull.
	blocked := make(chan struct{})
	b := batcher.New(fixedSource(testModel(0), 1), batcher.Config{
		MaxBatch: 1,
		Queue:    2,
		Gate:     blockGate{wait: blocked},
	})
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Predict(context.Background(), queryRow)
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Predict(context.Background(), queryRow); !errors.Is(err, batcher.ErrQueueFull) {
		t.Fatalf("overfull queue accepted a submission: %v", err)
	}
	close(blocked)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request answered with %v", err)
		}
	}
	b.Close()
}

type blockGate struct{ wait chan struct{} }

func (g blockGate) AcquireBatch(ctx context.Context) error {
	select {
	case <-g.wait:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
func (g blockGate) ReleaseBatch() {}

func TestExpiredContextAnsweredNotDropped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := batcher.New(fixedSource(testModel(0), 1), batcher.Config{MaxWait: time.Millisecond})
	defer b.Close()
	if _, err := b.Predict(ctx, queryRow); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request: got %v, want context.Canceled", err)
	}
	// The slot must drain (answered into the buffered channel), not leak.
	deadline := time.Now().Add(2 * time.Second)
	for b.QueueDepth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := b.QueueDepth(); d != 0 {
		t.Fatalf("cancelled request leaked: queue depth %d", d)
	}
}

func TestCloseDrainsQueuedRequests(t *testing.T) {
	m := testModel(0.2)
	want := m.DecisionValue(queryRow)
	b := batcher.New(fixedSource(m, 3), batcher.Config{
		MaxBatch: 8,
		MaxWait:  time.Hour, // windows only close by size or drain
	})
	const n = 5 // below MaxBatch: these sit in an open window until Close
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := b.Predict(context.Background(), queryRow)
			if err == nil && math.Float64bits(res.Decision) != math.Float64bits(want) {
				err = fmt.Errorf("decision %v, want %v", res.Decision, want)
			}
			results <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.QueueDepth() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("request during drain: %v", err)
		}
	}
	if _, err := b.Predict(context.Background(), queryRow); !errors.Is(err, batcher.ErrClosed) {
		t.Fatalf("post-Close Predict: got %v, want ErrClosed", err)
	}
}

// TestHotReloadDuringBatches is the registry/batcher consistency stress:
// predictions flow through the batcher while the model file behind the
// registry entry is rewritten with alternating betas. Every batch resolves
// its snapshot once, so each answer's decision value must match the beta
// of the version it claims — a batch can never straddle two versions.
func TestHotReloadDuringBatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.model")
	write := func(beta float64) {
		if err := testModelSave(path, beta); err != nil {
			t.Fatal(err)
		}
	}
	betaA, betaB := 0.25, 5.25
	write(betaA)
	reg := serve.NewRegistry()
	if err := reg.Add("m", path); err != nil {
		t.Fatal(err)
	}

	decisionFor := func(beta float64) float64 {
		m := testModel(beta)
		return m.DecisionValue(queryRow)
	}
	wantA, wantB := decisionFor(betaA), decisionFor(betaB)

	b := batcher.New(func() (*model.Model, uint64) {
		snap, ok := reg.Get("m")
		if !ok {
			return nil, 0
		}
		return snap.Model, snap.Version
	}, batcher.Config{MaxBatch: 8, MaxWait: 500 * time.Microsecond})
	defer b.Close()

	const (
		predictors = 6
		perClient  = 120
		reloads    = 60
	)
	var wg sync.WaitGroup
	errs := make([]error, predictors)
	for g := 0; g < predictors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := b.Predict(context.Background(), queryRow)
				if err != nil {
					errs[g] = err
					return
				}
				want, wantBeta := wantA, betaA
				if res.Version%2 == 0 {
					want, wantBeta = wantB, betaB
				}
				if math.Float64bits(res.Decision) != math.Float64bits(want) {
					errs[g] = fmt.Errorf("version %d answered %v, want %v: batch straddled a reload",
						res.Version, res.Decision, want)
					return
				}
				// The answer carries the model it was computed with.
				if res.Model == nil || res.Model.Beta != wantBeta {
					errs[g] = fmt.Errorf("version %d answered with model %p, want the one with beta %v", res.Version, res.Model, wantBeta)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			beta := betaA
			if i%2 == 0 {
				beta = betaB // version 2, 4, ... carry betaB
			}
			write(beta)
			if _, err := reg.Reload("m"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("predictor %d: %v", g, err)
		}
	}
}

// testModelSave writes a loadable model file carrying the given beta.
func testModelSave(path string, beta float64) error {
	m := testModel(beta)
	tmp := path + ".tmp"
	if err := m.Save(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
