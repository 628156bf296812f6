package serve

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"
)

// FuzzDecodePredict drives the predict-body decoder, the server's trust
// boundary, with arbitrary JSON and text/plain bodies. No body may panic,
// and every decoded row must be one the kernel code can index safely:
// strictly increasing column indices in [0, MaxInt32) and finite values.
func FuzzDecodePredict(f *testing.F) {
	for _, seed := range []struct {
		body  string
		plain bool
	}{
		{`{"features":{"1":0.4,"2":-0.56}}`, false},
		{`{"model":"a","instances":[{"libsvm":"1:0.4 2:-0.56"},{"features":{"3":1}}]}`, false},
		{`{"features":{"2147483647":1}}`, false},
		{`{"features":{"2147483648":1}}`, false},
		{`{"features":{"1":1,"01":2,"+1":3}}`, false},
		{`{"features":{"0":1,"-1":2}}`, false},
		{`{"libsvm":"3:1 2:1"}`, false},
		{`{"features":{"1":1e400}}`, false},
		{"+1 1:0.9 2:0.1\n# comment\n\n-1 1:-0.8\n", true},
		{"1:NaN\n", true},
		{"2147483648:1\n", true},
	} {
		f.Add([]byte(seed.body), seed.plain)
	}
	f.Fuzz(func(t *testing.T, body []byte, plain bool) {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		if plain {
			req.Header.Set("Content-Type", "text/plain")
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		_, rows, err := new(Server).decodePredict(req)
		if err != nil {
			return
		}
		for r, row := range rows {
			if len(row.Idx) != len(row.Val) {
				t.Fatalf("row %d: %d indices but %d values from %q", r, len(row.Idx), len(row.Val), body)
			}
			prev := int32(-1)
			for k, c := range row.Idx {
				if c <= prev || c == math.MaxInt32 {
					t.Fatalf("row %d: index %d after %d from %q", r, c, prev, body)
				}
				prev = c
				if v := row.Val[k]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d: non-finite value %v from %q", r, v, body)
				}
			}
		}
	})
}
