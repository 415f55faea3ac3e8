package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// rankBufs pools the buffers rank bodies are encoded into; a buffer that
// grew past maxPooledRankBuf is dropped instead of kept.
var rankBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledRankBuf = 1 << 20

// writeRanks answers 200 with the /v1/rank body of results[0] or, with
// batch set, the /v1/rankbatch body of all results. The body is encoded
// into a pooled buffer and written once with its Content-Length. A score
// JSON cannot hold answers 500 with a JSON error body instead.
func (s *Server) writeRanks(w http.ResponseWriter, results []RankResponse, batch bool) {
	buf := rankBufs.Get().(*[]byte)
	b, err := appendRanks((*buf)[:0], results, batch)
	if err != nil {
		s.writeError(w, err)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b) // fails only when the client has gone; no one is left to tell
	}
	if cap(b) <= maxPooledRankBuf {
		*buf = b
		rankBufs.Put(buf)
	}
}

// appendRanks appends to b the JSON of results[0], or with batch set of
// RankBatchResponse{Results: results}, byte for byte what
// json.NewEncoder(w).Encode writes for it, trailing newline included.
// results is never empty: both handlers rank at least one tenant. It
// fails on a NaN or infinite score, which encoding/json refuses too.
func appendRanks(b []byte, results []RankResponse, batch bool) ([]byte, error) {
	if !batch {
		b, err := appendRankResponse(b, &results[0])
		return append(b, '\n'), err
	}
	b = append(b, `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendRankResponse(b, &results[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}\n"...), nil
}

// appendRankResponse appends r's JSON object to b in field order, as
// encoding/json writes it: the tenant name, omitted when empty, goes
// through encoding/json's own HTML-escaping string encoder, and nil
// Scores are null.
func appendRankResponse(b []byte, r *RankResponse) ([]byte, error) {
	b = append(b, '{')
	if r.Tenant != "" {
		name, err := json.Marshal(r.Tenant)
		if err != nil {
			return b, err
		}
		b = append(b, `"tenant":`...)
		b = append(b, name...)
		b = append(b, ',')
	}
	b = append(b, `"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	b = append(b, `,"staleness":`...)
	b = strconv.AppendUint(b, r.Staleness, 10)
	b = append(b, `,"scores":`...)
	if r.Scores == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, x := range r.Scores {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return b, fmt.Errorf("rank response: score %d is %v, which JSON cannot encode", i, x)
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, x)
		}
		b = append(b, ']')
	}
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(r.Iterations), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, r.Converged)
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendBool(b, r.Coalesced)
	return append(b, '}'), nil
}

// appendJSONFloat formats a finite x as encoding/json does, after ES6's
// number-to-string: the shortest decimal that parses back to x, in 'f'
// form for 1e-6 ≤ |x| < 1e21 (and for ±0, keeping the sign) and in 'e'
// form otherwise, with a negative exponent's leading zero trimmed (e-07
// becomes e-7).
func appendJSONFloat(b []byte, x float64) []byte {
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, x, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, x, 'f', -1, 64)
}
