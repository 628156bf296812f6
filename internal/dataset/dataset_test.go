package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAllSpecsGenerateValid(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := Generate(spec, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Validate(); err != nil {
				t.Fatal(err)
			}
			if ds.X.Cols != spec.Dim {
				t.Fatalf("cols = %d, want %d", ds.X.Cols, spec.Dim)
			}
			if ds.C != spec.C || ds.Sigma2 != spec.Sigma2 {
				t.Fatalf("hyperparameters not propagated: %+v", ds)
			}
			if spec.FullTest > 0 && ds.TestX == nil {
				t.Fatal("spec has test set but none generated")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("mnist38", 0.02)
	b := MustGenerate("mnist38", 0.02)
	if a.X.NNZ() != b.X.NNZ() || a.Train() != b.Train() {
		t.Fatal("generation not deterministic in shape")
	}
	for i := range a.X.Val {
		if a.X.Val[i] != b.X.Val[i] {
			t.Fatal("generation not deterministic in values")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestScaledCounts(t *testing.T) {
	s := Specs["higgs"]
	tr, te := s.ScaledCounts(0.01)
	if tr != 26000 || te != 0 {
		t.Fatalf("higgs at 1%%: %d/%d", tr, te)
	}
	tr, _ = s.ScaledCounts(1e-9)
	if tr != 200 {
		t.Fatalf("floor failed: %d", tr)
	}
	m := Specs["mnist38"]
	tr, te = m.ScaledCounts(0.1)
	if tr != 6000 || te != 1000 {
		t.Fatalf("mnist at 10%%: %d/%d", tr, te)
	}
}

func TestDensityApproximatelyMatchesSpec(t *testing.T) {
	for _, name := range []string{"url", "realsim", "a9a", "mnist38"} {
		spec := Specs[name]
		ds := MustGenerate(name, 0.02)
		got := ds.X.Density()
		if got < spec.Density*0.4 || got > spec.Density*2.5 {
			t.Errorf("%s: density %v, spec %v", name, got, spec.Density)
		}
	}
}

func TestDenseSpecsAreDense(t *testing.T) {
	ds := MustGenerate("higgs", 0.001)
	if d := ds.X.Density(); d < 0.95 {
		t.Fatalf("higgs density = %v", d)
	}
}

func TestBinarySpecsHaveUnitValues(t *testing.T) {
	ds := MustGenerate("mushrooms", 0.05)
	first := ds.X.Val[0]
	for _, v := range ds.X.Val {
		if v != first {
			t.Fatalf("binary dataset has non-constant values: %v vs %v", v, first)
		}
	}
}

func TestKernelWidthScaling(t *testing.T) {
	// After generation the mean squared pairwise distance should be within
	// a small factor of sigma^2 so Table III hyper-parameters make sense.
	for _, name := range []string{"higgs", "mnist38", "a9a"} {
		ds := MustGenerate(name, 0.01)
		var sum float64
		count := 0
		n := ds.Train()
		for i := 0; i < 100; i++ {
			a, b := (i*37)%n, (i*101+7)%n
			if a == b {
				continue
			}
			sum += ds.X.SquaredDistance(a, b)
			count++
		}
		mean := sum / float64(count)
		if mean < ds.Sigma2/8 || mean > ds.Sigma2*8 {
			t.Errorf("%s: mean pair distance^2 = %v, sigma^2 = %v", name, mean, ds.Sigma2)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown dataset resolved")
	}
}

func TestGenerateRejectsBadInput(t *testing.T) {
	if _, err := Generate(Spec{Name: "x"}, 1); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := Generate(Specs["blobs"], -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestLibsvmRoundTrip(t *testing.T) {
	ds := MustGenerate("a9a", 0.02)
	var buf bytes.Buffer
	if err := WriteLibsvm(&buf, ds.X, ds.Y); err != nil {
		t.Fatal(err)
	}
	x2, y2, err := ReadLibsvm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Rows() != ds.Train() || x2.NNZ() != ds.X.NNZ() {
		t.Fatalf("round trip shape: %d/%d vs %d/%d", x2.Rows(), x2.NNZ(), ds.Train(), ds.X.NNZ())
	}
	for i := range y2 {
		if y2[i] != ds.Y[i] {
			t.Fatalf("label %d: %v vs %v", i, y2[i], ds.Y[i])
		}
	}
	for i := range x2.Val {
		if math.Abs(x2.Val[i]-ds.X.Val[i]) > 1e-12*math.Abs(ds.X.Val[i]) {
			t.Fatalf("value %d: %v vs %v", i, x2.Val[i], ds.X.Val[i])
		}
	}
}

func TestReadLibsvmFormats(t *testing.T) {
	in := `+1 1:0.5 3:1.25
-1 2:2
# comment line

+3.0 1:1
0 1:1
`
	x, y, err := ReadLibsvm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 4 {
		t.Fatalf("rows = %d", x.Rows())
	}
	want := []float64{1, -1, 1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("label %d = %v, want %v", i, y[i], want[i])
		}
	}
	if x.RowView(0).Val[1] != 1.25 || x.RowView(0).Idx[1] != 2 {
		t.Fatalf("row 0 = %+v", x.RowView(0))
	}
}

func TestReadLibsvmErrors(t *testing.T) {
	cases := []string{
		"abc 1:1",
		"+1 0:1",     // index < 1
		"+1 1:1 1:2", // non-increasing
		"+1 2:1 1:2", // decreasing
		"+1 1:xyz",   // bad value
		"+1 1-2",     // missing colon
	}
	for _, c := range cases {
		if _, _, err := ReadLibsvm(strings.NewReader(c)); err == nil {
			t.Errorf("accepted malformed input %q", c)
		}
	}
}

func TestWriteLibsvmMismatch(t *testing.T) {
	ds := MustGenerate("blobs", 0.05)
	var buf bytes.Buffer
	if err := WriteLibsvm(&buf, ds.X, ds.Y[:3]); err == nil {
		t.Fatal("mismatched labels accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	ds := MustGenerate("blobs", 0.05)
	path := t.TempDir() + "/data.libsvm"
	if err := SaveLibsvmFile(path, ds.X, ds.Y); err != nil {
		t.Fatal(err)
	}
	x, y, err := LoadLibsvmFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != ds.Train() || len(y) != len(ds.Y) {
		t.Fatal("file round trip mismatch")
	}
	if _, _, err := LoadLibsvmFile(path + ".missing"); err == nil {
		t.Fatal("missing file loaded")
	}
}

// Property: any generated dataset round-trips through the libsvm format.
func TestLibsvmRoundTripQuick(t *testing.T) {
	names := Names()
	f := func(seedIdx uint8, scalePick uint8) bool {
		name := names[int(seedIdx)%len(names)]
		scale := 0.002 + float64(scalePick%10)*0.001
		ds := MustGenerate(name, scale)
		var buf bytes.Buffer
		if err := WriteLibsvm(&buf, ds.X, ds.Y); err != nil {
			return false
		}
		x2, y2, err := ReadLibsvm(&buf)
		if err != nil {
			return false
		}
		return x2.Rows() == ds.Train() && len(y2) == len(ds.Y) && x2.NNZ() == ds.X.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadLabels(t *testing.T) {
	ds := MustGenerate("blobs", 0.05)
	ds.Y[0] = 0.5
	if err := ds.Validate(); err == nil {
		t.Fatal("accepted label 0.5")
	}
	ds = MustGenerate("blobs", 0.05)
	for i := range ds.Y {
		ds.Y[i] = 1
	}
	if err := ds.Validate(); err == nil {
		t.Fatal("accepted single-class labels")
	}
}
