package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// encodingJSON is the reference appendRanks matches: encoding/json's
// Encoder output for the /v1/rank or /v1/rankbatch body.
func encodingJSON(t *testing.T, results []RankResponse, batch bool) []byte {
	t.Helper()
	var v any = results[0]
	if batch {
		v = RankBatchResponse{Results: results}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendRanksMatchesEncodingJSON is the differential test of the rank
// body encoder: on random responses its bytes equal encoding/json's, for
// single and batch bodies. The scores mix ±0, both sides of the 1e-6 and
// 1e21 format cut-offs, the smallest subnormal, ±MaxFloat64 and random bit
// patterns; the tenant names need HTML, U+2028, quote, backslash, control
// and invalid UTF-8 escaping; Scores is nil, empty or filled; a batch holds
// one to four results.
func TestAppendRanksMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, -1e-6, 1e21, -1e21,
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
		1e-7, 123456789e-15, 1e20, 1e22, 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1 << 53, 0.30000000000000004,
	}
	names := []string{"", "t0", "<a&b>", "é\u2028\u2029", `q"uo\te`, "tab\tnl\nbell\x07", "bad\xffutf8", "emoji😀"}
	score := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			for {
				if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
					return x
				}
			}
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return rng.NormFloat64()
	}
	response := func() RankResponse {
		r := RankResponse{
			Tenant:     names[rng.Intn(len(names))],
			Generation: rng.Uint64() >> rng.Intn(64),
			Staleness:  uint64(rng.Intn(3)),
			Iterations: rng.Intn(1 << 20),
			Converged:  rng.Intn(2) == 0,
			Coalesced:  rng.Intn(2) == 0,
		}
		switch rng.Intn(6) {
		case 0: // nil Scores
		case 1:
			r.Scores = []float64{}
		default:
			r.Scores = make([]float64, rng.Intn(200))
			for i := range r.Scores {
				r.Scores[i] = score()
			}
		}
		return r
	}
	var scratch []byte
	for trial := 0; trial < 3000; trial++ {
		results := []RankResponse{response()}
		batch := trial%3 == 0
		if batch {
			for n := rng.Intn(4); n > 0; n-- {
				results = append(results, response())
			}
		}
		got, err := appendRanks(scratch[:0], results, batch)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodingJSON(t, results, batch); !bytes.Equal(got, want) {
			t.Fatalf("trial %d:\n got %s\nwant %s", trial, got, want)
		}
		scratch = got
	}
}

// TestWriteRanksRejectsNonFiniteScores pins the encoder's defined answer
// to a score JSON cannot hold: 500 with a JSON error body, where
// writeJSON would have committed a 200 before encoding/json refused it.
func TestWriteRanksRejectsNonFiniteScores(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, batch := range []bool{false, true} {
			rec := httptest.NewRecorder()
			s.writeRanks(rec, []RankResponse{{Tenant: "t", Scores: []float64{1, x}}}, batch)
			var body ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Fatalf("score %v, batch %v: body %q is not a JSON error (%v)", x, batch, rec.Body, err)
			}
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("score %v, batch %v: HTTP %d, want 500", x, batch, rec.Code)
			}
		}
	}
	rec := httptest.NewRecorder()
	s.writeRanks(rec, []RankResponse{{Scores: []float64{0.5}}}, false)
	if cl := rec.Header().Get("Content-Length"); rec.Code != http.StatusOK || cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("finite scores: HTTP %d, Content-Length %q for a %d-byte body", rec.Code, cl, rec.Body.Len())
	}
}
