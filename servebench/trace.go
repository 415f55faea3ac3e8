package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// its op id (-1 for background work: refresh rounds, snapshots, set-up).
type span struct {
	name       string
	op         int
	parent     int // index of the enclosing span, -1 for none
	start, end time.Duration
	alloc      uint64 // heap bytes allocated inside, when measured
	val        int    // iterations of a solve, shards of a shard re-solve
	allocs     bool
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory; they are written out when the run ends.
// Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	// op and parent are what spans begun inside library callbacks (the
	// WAL write hook) attach to: the replay sets them before each call.
	op, parent int
}

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1, parent: -1} }

var (
	allocMu     sync.Mutex
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

// heapAllocs reads the cumulative heap bytes allocated by the process.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// begin opens a span and returns its id; with allocs set it also counts
// the heap bytes allocated until end. The counter is read outside the
// timed interval.
func (t *tracer) begin(name string, op, parent int, allocs bool) int {
	var a uint64
	if allocs {
		a = heapAllocs()
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, alloc: a, allocs: allocs})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.base)
	t.mu.Lock()
	measure := t.spans[id].allocs
	t.mu.Unlock()
	var a uint64
	if measure {
		a = heapAllocs()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	if measure {
		s.alloc = a - s.alloc
	}
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start.Sub(t.base), end: end.Sub(t.base)})
}

// rename relabels span id once the call's outcome is known (a rank that
// turned out to be a cache hit or a solve) and attaches a value to it.
func (t *tracer) rename(id int, name string, val int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].name, t.spans[id].val = name, val
}

// setCurrent sets the op and parent span of spans begun in callbacks.
func (t *tracer) setCurrent(op, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op, t.parent = op, parent
}

func (t *tracer) current() (op, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op, t.parent
}

// middleware wraps the server's handler with a span per request, tagged
// with the op id the client sent.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := -1
		if v, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			op = v
		}
		id := t.begin("serve.handle", op, -1, false)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// spanIndex groups a finished trace for the layer metrics.
type spanIndex struct {
	byOp     map[string]map[int]span // name → op → span (last one wins)
	children map[int][]interval
	spans    []span
}

func (t *tracer) index() *spanIndex {
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := &spanIndex{byOp: map[string]map[int]span{}, children: map[int][]interval{}, spans: t.spans}
	for _, s := range t.spans {
		if s.op >= 0 {
			if ix.byOp[s.name] == nil {
				ix.byOp[s.name] = map[int]span{}
			}
			ix.byOp[s.name][s.op] = s
		}
		if s.parent >= 0 {
			ix.children[s.parent] = append(ix.children[s.parent], interval{s.start, s.end})
		}
	}
	return ix
}

// durations returns the named spans' durations in milliseconds; with self
// set, each minus the time its children cover.
func (ix *spanIndex) durations(name string, self bool) []float64 {
	var out []float64
	for i, s := range ix.spans {
		if s.name != name {
			continue
		}
		d := s.dur()
		if self {
			d = selfTime(interval{s.start, s.end}, ix.children[i])
		}
		out = append(out, ms(d))
	}
	return out
}

// write stores the spans as CSV, one per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,name,op,parent,start_ns,end_ns,alloc_bytes,value")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d,%d\n", i, s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds(), s.alloc, s.val)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
