package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/serve/batcher"
	"repro/internal/serve/shed"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// RunServe is the closed-loop serving harness: a kernel model trained on
// the mnist38 shape answers single-row predictions from concurrent clients
// through three paths — the pre-batching per-request path ("unbatched"),
// the coalescing batcher over the pooled row engine ("coalesced"), and the
// batcher over the packed predict-time layout ("coalesced+packed", the
// production default). A final run at ~2x the measured capacity shows the
// load shedder rejecting explicitly while accepted latency stays bounded
// by the request deadline; every submission is accounted for.
func RunServe(o Options) (*Report, error) {
	o = o.withDefaults()
	start := time.Now()
	rep := &Report{
		ID:     "serve",
		Title:  "Serving throughput: unbatched vs coalesced vs coalesced+packed, plus overload shedding",
		Header: []string{"mode", "requests", "throughput", "p50", "p99", "shed", "expired"},
	}

	// 3x the harness default mnist38 scale: serving economics only show at
	// realistic model sizes — per-request pipeline overhead (goroutine
	// wakeups, channel hops) is fixed, so it amortizes as the support
	// vector count grows. The generated set carries its own test split;
	// requests draw from it so the served rows were never trained on.
	od := o
	od.Scale = o.Scale * 3
	ds, _, err := loadDataset(od, "mnist38")
	if err != nil {
		return nil, err
	}
	testX := ds.TestX
	o.logf("serve: training smo kernel model on %d rows", ds.X.Rows())
	res, err := train(o, "smo", ds, solver.Options{Workers: o.BaselineWorkers})
	if err != nil {
		return nil, fmt.Errorf("serve: train: %w", err)
	}
	m := res.Model
	m.WarmNorms()
	o.logf("serve: model has %d SVs", m.NumSV())

	const clients = 32
	perClient := int(300 * o.Scale)
	if perClient < 40 {
		perClient = 40
	}
	row := func(i int) sparse.Row { return testX.RowView(i % testX.Rows()) }

	type stats struct {
		requests   int
		wall       time.Duration
		p50, p99   time.Duration
		throughput float64
	}
	addRow := func(mode string, s stats, shedded, expired uint64) {
		rep.Rows = append(rep.Rows, []string{
			mode, itoa(s.requests),
			fmt.Sprintf("%.0f req/s", s.throughput),
			s.p50.Round(time.Microsecond).String(),
			s.p99.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", shedded),
			fmt.Sprintf("%d", expired),
		})
	}

	// closedLoop drives `clients` goroutines, each issuing perClient
	// sequential predictions, and reports wall-clock throughput and
	// latency percentiles. afterWarmup (optional) runs between the warmup
	// pass and the measured phase — modes reset their batch-execution
	// stats there, since warmup requests arrive sequentially and form
	// singleton batches that would skew the averages.
	closedLoop := func(predict func(i int) error, afterWarmup func()) (stats, error) {
		// Warm the path (lazy evaluator state, pools) and start each mode
		// from a collected heap, so GC debt left by training or a previous
		// mode doesn't land in this mode's measurement.
		for i := 0; i < 256; i++ {
			if err := predict(i); err != nil {
				return stats{}, err
			}
		}
		runtime.GC()
		if afterWarmup != nil {
			afterWarmup()
		}
		lats := make([][]time.Duration, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lats[g] = make([]time.Duration, 0, perClient)
				for i := 0; i < perClient; i++ {
					t := time.Now()
					if err := predict(g*perClient + i); err != nil {
						errs[g] = err
						return
					}
					lats[g] = append(lats[g], time.Since(t))
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(t0)
		var all []time.Duration
		for g, l := range lats {
			if errs[g] != nil {
				return stats{}, errs[g]
			}
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return stats{
			requests:   len(all),
			wall:       wall,
			p50:        pctile(all, 0.50),
			p99:        pctile(all, 0.99),
			throughput: float64(len(all)) / wall.Seconds(),
		}, nil
	}

	// MaxBatch is half the client count: with two windows' worth of
	// clients in flight the collector coalesces the next batch while the
	// previous one executes, keeping the evaluator busy instead of
	// lock-stepping the whole pool. MaxWait comfortably exceeds a full
	// batch's execution time so windows close by filling, not by timer —
	// a timer closure ships a partial window, and the per-batch fixed
	// cost then amortizes over fewer rows.
	type execStats struct {
		batches, rows atomic.Int64
		execNS        atomic.Int64
	}
	resetStats := func(es *execStats) func() {
		return func() {
			es.batches.Store(0)
			es.rows.Store(0)
			es.execNS.Store(0)
		}
	}
	newBatcher := func(es *execStats) *batcher.Batcher {
		cfg := batcher.Config{
			MaxBatch: clients / 2,
			MaxWait:  200 * time.Microsecond,
			Queue:    8192,
		}
		if es != nil {
			cfg.OnBatch = func(size int, _, exec time.Duration) {
				es.batches.Add(1)
				es.rows.Add(int64(size))
				es.execNS.Add(int64(exec))
			}
		}
		return batcher.New(func() (*model.Model, uint64) { return m, 1 }, cfg)
	}

	// Mode 1 — unbatched: the pre-coalescing serving path — each request
	// builds its own one-row matrix and runs a batch-of-one evaluation,
	// exactly what the HTTP handler did per request before coalescing.
	single, err := closedLoop(func(i int) error {
		bld := sparse.NewBuilder(m.FeatureDim())
		r := row(i)
		bld.AddRow(r.Idx, r.Val)
		m.DecisionValues(bld.Build(), 1)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	addRow("unbatched", single, 0, 0)

	// Mode 2 — coalesced: concurrent requests ride shared batch windows,
	// still over the pooled row engine.
	var coalES execStats
	b := newBatcher(&coalES)
	coal, err := closedLoop(func(i int) error {
		_, err := b.Predict(context.Background(), row(i))
		return err
	}, resetStats(&coalES))
	b.Close()
	if err != nil {
		return nil, err
	}
	addRow("coalesced", coal, 0, 0)

	// Mode 3 — coalesced+packed: the production default. Packing is
	// in-place, so from here on the same model answers via the packed
	// layout (bit-identical decisions, see model.TestPackedBitIdentical).
	m.Pack(model.DefaultPackBudget)
	var packES execStats
	bp := newBatcher(&packES)
	packedStats, err := closedLoop(func(i int) error {
		_, err := bp.Predict(context.Background(), row(i))
		return err
	}, resetStats(&packES))
	bp.Close()
	if err != nil {
		return nil, err
	}
	addRow("coalesced+packed", packedStats, 0, 0)
	esNote := func(name string, es *execStats) string {
		nb, nr, ns := es.batches.Load(), es.rows.Load(), es.execNS.Load()
		if nb == 0 || nr == 0 {
			return name + ": no batches"
		}
		return fmt.Sprintf("%s: avg batch %.1f rows, exec %.1fµs/row",
			name, float64(nr)/float64(nb), float64(ns)/float64(nr)/1e3)
	}
	o.logf("serve: %s", esNote("coalesced", &coalES))
	o.logf("serve: %s", esNote("coalesced+packed", &packES))

	// Mode 4 — overload: open-loop arrivals at ~2x the measured packed
	// capacity, 25ms request deadlines, a small queue. The shedder must
	// reject explicitly (429-equivalent) while every accepted request is
	// answered inside its deadline, and no submission goes unanswered.
	const deadline = 25 * time.Millisecond
	sh := shed.New(shed.Config{MaxQueue: 256, MaxInFlight: 2})
	bo := batcher.New(func() (*model.Model, uint64) { return m, 1 }, batcher.Config{
		MaxBatch: clients / 2,
		MaxWait:  200 * time.Microsecond,
		Queue:    8192,
		Gate:     sh,
		OnBatch:  func(size int, _, exec time.Duration) { sh.ObserveBatch(size, exec) },
	})
	rate := 2 * packedStats.throughput
	// A bounded pool of paced submitters approximates open-loop arrivals:
	// each worker fires on its own fixed schedule (phases staggered across
	// the pool) and skips sleeping when it falls behind, so the offered
	// rate holds near 2x capacity. Spawning one goroutine per arrival
	// instead would pile up ~10^5 runnable goroutines on a small box and
	// the scheduler backlog — not the serving path — would dominate the
	// measured latency of accepted requests. The pool must be deep enough
	// that workers stuck waiting out the full deadline cannot self-throttle
	// the offered rate below capacity (Little's law: ~rate x deadline
	// outstanding), or the run degenerates into a closed loop that never
	// overloads the queue.
	const oworkers = 2048
	perWorker := int(rate) / oworkers // ~1 second of 2x offered load
	if perWorker < 4 {
		perWorker = 4
	}
	totalOverload := oworkers * perWorker
	interval := time.Duration(float64(oworkers) / rate * float64(time.Second))
	var okCount, shedCount, expiredCount, otherCount atomic.Uint64
	var okLats struct {
		mu sync.Mutex
		v  []time.Duration
	}
	var owg sync.WaitGroup
	o.logf("serve: overload run, %d requests at ~%.0f req/s (2x capacity)", totalOverload, rate)
	ot0 := time.Now()
	for w := 0; w < oworkers; w++ {
		owg.Add(1)
		go func(w int) {
			defer owg.Done()
			next := ot0.Add(interval * time.Duration(w) / oworkers)
			for i := 0; i < perWorker; i++ {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				release, err := sh.Admit(ctx)
				if err != nil {
					cancel()
					shedCount.Add(1)
					continue
				}
				t := time.Now()
				_, err = bo.Predict(ctx, row(w*perWorker+i))
				l := time.Since(t)
				// Deadline semantics: an answer the caller only sees after
				// its deadline is a deadline miss, even when the result won
				// the select race against the expired context — count it
				// with the ctx-error expiries, not the successes.
				expired := (err != nil && ctx.Err() != nil) || (err == nil && l > deadline)
				release()
				cancel()
				switch {
				case err == nil && !expired:
					okCount.Add(1)
					okLats.mu.Lock()
					okLats.v = append(okLats.v, l)
					okLats.mu.Unlock()
				case expired:
					expiredCount.Add(1)
				default:
					otherCount.Add(1)
				}
			}
		}(w)
	}
	owg.Wait()
	overWall := time.Since(ot0)
	bo.Close()
	ok, sheds, expired, other := okCount.Load(), shedCount.Load(), expiredCount.Load(), otherCount.Load()
	answered := ok + sheds + expired + other
	dropped := uint64(totalOverload) - answered
	sort.Slice(okLats.v, func(i, j int) bool { return okLats.v[i] < okLats.v[j] })
	addRow("overload(2x)", stats{
		requests:   totalOverload,
		p50:        pctile(okLats.v, 0.50),
		p99:        pctile(okLats.v, 0.99),
		throughput: float64(ok) / overWall.Seconds(),
	}, sheds, expired)

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("model: mnist38 shape, %d SVs, gaussian kernel; %d closed-loop clients", m.NumSV(), clients),
		fmt.Sprintf("coalesced speedup: %.2fx (vs unbatched)", coal.throughput/single.throughput),
		fmt.Sprintf("coalesced+packed speedup: %.2fx (vs unbatched)", packedStats.throughput/single.throughput),
		fmt.Sprintf("packed layout speedup: %.2fx (vs coalesced, same batching overhead)", packedStats.throughput/coal.throughput),
		fmt.Sprintf("overload: %d submitted = %d answered + %d shed + %d expired + %d errored; dropped without response: %d",
			totalOverload, ok, sheds, expired, other, dropped),
		fmt.Sprintf("overload accepted p99: %v (deadline %v)", pctile(okLats.v, 0.99).Round(time.Microsecond), deadline),
	)
	rep.Took = time.Since(start)
	return rep, nil
}

// pctile returns the p-quantile of ascending-sorted latencies.
func pctile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
