package trace

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() *Trace {
	t := New("Multi5pc", 1000, 30, 1e-3)
	t.SetActive(100, 600)
	t.SetActive(400, 250)
	t.AddRecon(800, 750, 120)
	t.SetActive(900, 200)
	t.Iterations = 1000
	t.Converged = true
	t.SVCount = 150
	t.ShrinkChecks = 5
	return t
}

func TestNewAndSegments(t *testing.T) {
	tr := New("h", 500, 10, 1e-3)
	if len(tr.Segments) != 1 || tr.Segments[0].Active != 500 || tr.Segments[0].FromIter != 0 {
		t.Fatalf("initial segments = %+v", tr.Segments)
	}
}

func TestSetActiveDedup(t *testing.T) {
	tr := New("h", 500, 10, 1e-3)
	tr.SetActive(10, 500) // no change: no new segment
	if len(tr.Segments) != 1 {
		t.Fatalf("unchanged active added a segment: %+v", tr.Segments)
	}
	tr.SetActive(10, 300)
	tr.SetActive(10, 200) // same iteration: overwrite, not append
	if len(tr.Segments) != 2 || tr.Segments[1].Active != 200 {
		t.Fatalf("segments = %+v", tr.Segments)
	}
}

// activeAt returns the global active-set size at the given iteration.
func activeAt(t *Trace, iter int64) int {
	active := t.N
	for _, s := range t.Segments {
		if s.FromIter > iter {
			break
		}
		active = s.Active
	}
	return active
}

func TestActiveAt(t *testing.T) {
	tr := sampleTrace()
	cases := []struct {
		iter int64
		want int
	}{
		{0, 1000}, {99, 1000}, {100, 600}, {399, 600},
		{400, 250}, {799, 250}, {800, 1000}, {899, 1000}, {950, 200},
	}
	for _, tc := range cases {
		if got := activeAt(tr, tc.iter); got != tc.want {
			t.Errorf("activeAt(%d) = %d, want %d", tc.iter, got, tc.want)
		}
	}
}

func TestAddReconResetsActive(t *testing.T) {
	tr := sampleTrace()
	if len(tr.Recons) != 1 || tr.Recons[0].Shrunk != 750 || tr.Recons[0].SVs != 120 {
		t.Fatalf("recons = %+v", tr.Recons)
	}
	if activeAt(tr, 800) != tr.N {
		t.Fatal("recon did not re-admit all samples")
	}
}

func TestEachSegmentAndMeanActive(t *testing.T) {
	tr := sampleTrace()
	var total int64
	var weighted float64
	tr.EachSegment(func(active int, iters int64) {
		total += iters
		weighted += float64(active) * float64(iters)
	})
	if total != tr.Iterations {
		t.Fatalf("segments cover %d iterations, want %d", total, tr.Iterations)
	}
	want := weighted / float64(tr.Iterations) / float64(tr.N)
	if got := tr.MeanActiveFraction(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("MeanActiveFraction = %v, want %v", got, want)
	}
	if got := tr.MeanActiveFraction(); got <= 0 || got > 1 {
		t.Fatalf("mean active out of range: %v", got)
	}
}

func TestScaledUp(t *testing.T) {
	tr := sampleTrace()
	up := tr.ScaledUp(10)
	if up.N != 10000 || up.SVCount != 1500 || up.ShrinkChecks != 50 {
		t.Fatalf("scaled header: %+v", up)
	}
	if up.Iterations != 10000 {
		t.Fatalf("iterations = %d, want 10000", up.Iterations)
	}
	if up.Segments[1].FromIter != 1000 || up.Segments[1].Active != 6000 {
		t.Fatalf("segment 1 = %+v", up.Segments[1])
	}
	if up.Recons[0].Iter != 8000 || up.Recons[0].Shrunk != 7500 || up.Recons[0].SVs != 1200 {
		t.Fatalf("recon = %+v", up.Recons[0])
	}
	// Mean active fraction is scale-invariant.
	if math.Abs(up.MeanActiveFraction()-tr.MeanActiveFraction()) > 1e-12 {
		t.Fatalf("mean active changed: %v vs %v", up.MeanActiveFraction(), tr.MeanActiveFraction())
	}
	// Factor <= 0 means identity.
	if id := tr.ScaledUp(0); id.N != tr.N {
		t.Fatal("ScaledUp(0) should be identity")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != tr.N || back.Iterations != tr.Iterations || back.Heuristic != tr.Heuristic {
		t.Fatalf("round trip header: %+v", back)
	}
	if len(back.Segments) != len(tr.Segments) || len(back.Recons) != len(tr.Recons) {
		t.Fatal("round trip lost events")
	}
	if back.ShrinkChecks != tr.ShrinkChecks {
		t.Fatal("round trip lost check count")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(strings.NewReader(`{"n": 0}`)); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestSaveJSON(t *testing.T) {
	tr := sampleTrace()
	path := t.TempDir() + "/t.json"
	if err := tr.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	// Re-load via file contents.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil || back.N != tr.N {
		t.Fatalf("reload failed: %v", err)
	}
}

// Property: random event sequences keep segments strictly ordered with
// active counts in [0, N], and EachSegment always covers Iterations.
func TestTraceInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(1000)
		tr := New("h", n, 10, 1e-3)
		iter := int64(0)
		active := n
		for e := 0; e < 20; e++ {
			iter += int64(1 + rng.Intn(50))
			if rng.Float64() < 0.2 {
				tr.AddRecon(iter, n-active, rng.Intn(n))
				active = n
			} else {
				active = rng.Intn(active + 1)
				tr.SetActive(iter, active)
			}
		}
		tr.Iterations = iter + int64(rng.Intn(100))
		last := int64(-1)
		for _, s := range tr.Segments {
			if s.FromIter <= last || s.Active < 0 || s.Active > n {
				return false
			}
			last = s.FromIter
		}
		var covered int64
		tr.EachSegment(func(_ int, iters int64) { covered += iters })
		return covered == tr.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
