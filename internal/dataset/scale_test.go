package dataset

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sparse"
)

func TestFitScalerDense(t *testing.T) {
	x := sparse.FromDense([][]float64{
		{2, -1},
		{4, 3},
		{6, 1},
	})
	s, err := FitScaler(x, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatMin[0] != 2 || s.FeatMax[0] != 6 || s.FeatMin[1] != -1 || s.FeatMax[1] != 3 {
		t.Fatalf("ranges: %+v", s)
	}
	out := s.Apply(x)
	d := out.ToDense()
	// Feature 0: 2->-1, 4->0 (dropped from sparse), 6->1.
	if d[0][0] != -1 || d[2][0] != 1 {
		t.Fatalf("scaled col0: %v %v", d[0][0], d[2][0])
	}
	if d[1][0] != 0 {
		t.Fatalf("midpoint should scale to 0, got %v", d[1][0])
	}
	// Feature 1: -1->-1, 3->1, 1->0.
	if d[0][1] != -1 || d[1][1] != 1 || d[2][1] != 0 {
		t.Fatalf("scaled col1: %v", d)
	}
}

func TestScalerSparseZerosCountTowardRange(t *testing.T) {
	// Feature 0 appears only in row 0 with value 4; the implicit zeros of
	// rows 1-2 must widen the range to [0, 4] (svm-scale behaviour).
	x := sparse.FromDense([][]float64{{4}, {0}, {0}})
	s, err := FitScaler(x, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.FeatMin[0] != 0 || s.FeatMax[0] != 4 {
		t.Fatalf("range [%v,%v], want [0,4]", s.FeatMin[0], s.FeatMax[0])
	}
	out := s.Apply(x)
	if got := out.ToDense()[0][0]; got != 1 {
		t.Fatalf("4 -> %v, want 1", got)
	}
}

func TestScalerConstantFeaturePassesThrough(t *testing.T) {
	x := sparse.FromDense([][]float64{{5, 1}, {5, 2}})
	s, err := FitScaler(x, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Apply(x)
	if got := out.ToDense()[0][0]; got != 5 {
		t.Fatalf("constant feature changed: %v", got)
	}
}

func TestScalerUnseenFeaturePassesThrough(t *testing.T) {
	train := sparse.FromDense([][]float64{{1}, {3}})
	s, err := FitScaler(train, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	test := sparse.FromDense([][]float64{{2, 7}}) // feature 1 unseen at fit
	out := s.Apply(test)
	d := out.ToDense()
	if d[0][1] != 7 {
		t.Fatalf("unseen feature scaled: %v", d[0][1])
	}
	if math.Abs(d[0][0]-0.5) > 1e-12 {
		t.Fatalf("seen feature: %v, want 0.5", d[0][0])
	}
}

func TestScalerRejectsEmptyRange(t *testing.T) {
	x := sparse.FromDense([][]float64{{1}})
	if _, err := FitScaler(x, 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := FitScaler(x, 2, 1); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestScalerRoundTrip(t *testing.T) {
	ds := MustGenerate("a9a", 0.02)
	s, err := FitScaler(ds.X, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadScaler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Apply(ds.X)
	b := s2.Apply(ds.X)
	if a.NNZ() != b.NNZ() {
		t.Fatalf("NNZ %d vs %d after round trip", a.NNZ(), b.NNZ())
	}
	for i := range a.Val {
		if math.Abs(a.Val[i]-b.Val[i]) > 1e-12 {
			t.Fatalf("value %d differs: %v vs %v", i, a.Val[i], b.Val[i])
		}
	}
}

func TestReadScalerErrors(t *testing.T) {
	cases := []string{
		"",
		"y\n0 1\n",
		"x\n0\n",
		"x\n1 0\n",                    // inverted
		"x\n0 1\nbad\n",               // malformed feature line
		"x\n0 1\n0 1 2\n",             // 0-based index
		"x\n0 1\n1 a 2\n",             // bad min
		"x\n0 1\n1000000000000 0 1\n", // index past int32
	}
	for _, c := range cases {
		if _, err := ReadScaler(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("accepted malformed scaler %q", c)
		}
	}
}

func TestScaledValuesWithinRange(t *testing.T) {
	ds := MustGenerate("mnist38", 0.01)
	s, err := FitScaler(ds.X, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Apply(ds.X)
	for _, v := range out.Val {
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Fatalf("scaled value %v out of [-1,1]", v)
		}
	}
}
