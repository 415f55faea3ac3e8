package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/serve"
)

// agreeMin is the least Spearman correlation a tenant's final served
// scores must reach against an independent cold HnD-power solve of the
// same matrix. Warm and cold power iteration stop within the solver's
// tolerance of one eigenvector, so anything below this is a wrong answer.
const agreeMin = 0.999

// opResult is one executed op of the stream.
type opResult struct {
	lat       time.Duration
	end       time.Time // when the last body byte was read
	ok        bool
	size      int    // response body bytes (ranks)
	gen       uint64 // ranks: generation the scores were solved at
	staleness uint64 // ranks: generations behind the write frontier
	iters     int    // ranks: iterations of the solve the scores came from
}

// rtStats are the Go runtime counters read around a stream.
type rtStats struct{ gcCycles, allocBytes uint64 }

var rtSamples = []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	return rtStats{gcCycles: rtSamples[0].Value.Uint64(), allocBytes: rtSamples[1].Value.Uint64()}
}

// streamRun is one measured pass of the op stream over HTTP.
type streamRun struct {
	res           []opResult
	start         time.Time
	wall          time.Duration
	before, after map[string]any // /metrics around the stream
	rt0, rt1      rtStats
	probes        []probeSample // host-speed probes, in time order
	rssBefore     float64       // peak RSS through set-up, MB
	rssAfter      float64       // peak RSS since the last probe, MB
	notes         []string
}

// probe takes a host-speed probe between two ops, and the peak RSS since
// the previous one.
func (r *streamRun) probe() {
	d := hostProbe()
	r.probes = append(r.probes, probeSample{at: time.Now(), took: d, rss: takePeakRSS()})
}

// peakRSS is the median, over segments consecutive slices of the stream,
// of the largest RSS the slice reached. A slice's peak moves with what the
// program keeps in memory; the single largest peak of a run also moves
// with when the collector and the scavenger happened to run, by up to 9%
// between two runs of one seed. It is 0 when the RSS could not be sampled.
func (r *streamRun) peakRSS() float64 {
	n := len(r.probes)
	if n == 0 {
		return 0
	}
	per := make([]float64, min(segments, n))
	for k, pr := range r.probes {
		s := k * len(per) / n
		per[s] = max(per[s], pr.rss)
	}
	return median(per)
}

// processPeakRSS is the process's peak RSS through set-up and stream.
func (r *streamRun) processPeakRSS() float64 {
	peak := max(r.rssBefore, r.rssAfter)
	for _, pr := range r.probes {
		peak = max(peak, pr.rss)
	}
	return peak
}

// snapshotWait paces a durable stream around the serve tier's background
// snapshots: it mirrors the tier's cadence (one snapshot of every shard
// per serve.DefaultSnapshotEvery acknowledged observations) and, after
// the write that triggers one, waits until /metrics counts the new shard
// snapshots before the next op is sent. A snapshot then never shares the
// single P with a request, so its cost lands in ops_per_s and the
// per-layer snapshot time instead of in whichever requests it preempted.
type snapshotWait struct {
	shards int
	since  int     // acknowledged observations since the last snapshot
	seen   float64 // shard snapshots /metrics has counted
	missed int     // expected snapshots that never showed up
}

// snapshotTimeout bounds the wait for one expected snapshot; a serve tier
// whose cadence no longer matches the mirror costs a note, not a hang.
const snapshotTimeout = 5 * time.Second

func newSnapshotWait(p *plan, before map[string]any) *snapshotWait {
	seen, _ := tenantSum(before, "durability", "stats", "snapshots")
	return &snapshotWait{shards: max(1, p.w.shards), seen: seen}
}

// wrote accounts for n acknowledged observations and, when they complete
// a snapshot period, waits for that snapshot.
func (s *snapshotWait) wrote(c *client, n int) error {
	if s.since += n; s.since < serve.DefaultSnapshotEvery {
		return nil
	}
	s.since = 0
	want := s.seen + float64(s.shards)
	deadline := time.Now().Add(snapshotTimeout)
	for time.Now().Before(deadline) {
		doc, err := c.metrics()
		if err != nil {
			return err
		}
		if got, ok := tenantSum(doc, "durability", "stats", "snapshots"); ok && got >= want {
			s.seen = got
			return nil
		}
		time.Sleep(pollPause)
	}
	s.missed++
	return nil
}

// runStream executes the plan's op stream on the workload's closed-loop
// connections. With one connection the ops run in order, and every
// refreshEvery ops it ticks the virtual refresh clock and waits
// for the round before the next op. With several, connection k runs ops
// k, k+conns, ... concurrently with the others. A non-nil tracer records
// a client span per op and tags requests with their op id.
func runStream(p *plan, ls *liveServer, tr *tracer) (*streamRun, error) {
	clients := make([]*client, p.w.conns)
	for k := range clients {
		clients[k] = newClient(ls.base)
		clients[k].trace = tr != nil
		defer clients[k].close()
	}
	ctl := clients[0]
	run := &streamRun{res: make([]opResult, len(p.ops))}
	var err error
	if run.before, err = ctl.metrics(); err != nil {
		return nil, err
	}
	if ls.clock != nil {
		ls.rounds, _ = num(run.before, "refresh", "rounds")
	}
	run.rt0 = readRuntime()
	run.rssBefore = takePeakRSS() // the first slice's peak starts here
	run.start = time.Now()
	if len(clients) == 1 {
		snaps := newSnapshotWait(p, run.before)
		for i, o := range p.ops {
			if i%probeEvery == 0 {
				run.probe()
			}
			run.res[i] = ctl.exec(p, i, tr)
			if p.w.durable && o.kind != opRank && run.res[i].ok {
				if err := snaps.wrote(ctl, len(o.cells)); err != nil {
					return nil, err
				}
			}
			if every := p.w.refreshEvery; every > 0 && (i+1)%every == 0 {
				if err := ls.tick(ctl); err != nil {
					return nil, err
				}
			}
		}
		if snaps.missed > 0 {
			run.notes = append(run.notes, fmt.Sprintf("%d background snapshots expected by the serve tier's cadence were not observed", snaps.missed))
		}
	} else {
		var wg sync.WaitGroup
		for k, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Connection 0 alone probes, keeping the probes in order.
				every := max(1, probeEvery/len(clients))
				for j, i := 0, k; i < len(p.ops); j, i = j+1, i+len(clients) {
					if k == 0 && j%every == 0 {
						run.probe()
					}
					run.res[i] = c.exec(p, i, tr)
				}
			}()
		}
		wg.Wait()
	}
	run.wall = time.Since(run.start)
	run.rssAfter = takePeakRSS()
	run.rt1 = readRuntime()
	if run.after, err = ctl.metrics(); err != nil {
		return nil, err
	}
	return run, nil
}

// exec sends op i and records its latency; decoding happens after the
// timer stopped.
func (c *client) exec(p *plan, i int, tr *tracer) opResult {
	o := p.ops[i]
	name := p.tenants[o.tenant].name
	var path string
	var req any
	switch o.kind {
	case opRank:
		path, req = "/v1/rank", serve.RankRequest{Tenant: name}
	case opObserve:
		cl := o.cells[0]
		path, req = "/v1/observe", serve.ObserveRequest{Tenant: name, User: cl.user, Item: cl.item, Option: cl.option}
	default:
		path, req = "/v1/observebatch", serve.ObserveBatchRequest{Tenant: name, Observations: wireCells(o.cells)}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return opResult{lat: -1}
	}
	code, resp, lat, err := c.do(http.MethodPost, path, body, i)
	if tr != nil {
		tr.add("client", i, -1, c.sent, c.sent.Add(lat))
	}
	r := opResult{lat: lat, end: c.sent.Add(lat), ok: err == nil && code == http.StatusOK}
	if r.ok && o.kind == opRank {
		r.size = len(resp)
		r.gen, r.staleness, r.iters, r.ok = parseRank(resp)
	}
	return r
}

var (
	keyGeneration = []byte(`"generation":`)
	keyStaleness  = []byte(`"staleness":`)
	keyIterations = []byte(`"iterations":`)
)

// parseRank reads a rank response's generation, staleness and iterations.
// The scalar fields are found without decoding the score array; a body
// whose layout differs falls back to a full decode.
func parseRank(b []byte) (gen, stale uint64, iters int, ok bool) {
	head := b[:min(len(b), 256)]
	g, ok1 := uintAfter(head, bytes.Index(head, keyGeneration), len(keyGeneration))
	s, ok2 := uintAfter(head, bytes.Index(head, keyStaleness), len(keyStaleness))
	it, ok3 := uintAfter(b, bytes.LastIndex(b, keyIterations), len(keyIterations))
	if ok1 && ok2 && ok3 {
		return g, s, int(it), true
	}
	var rb rankBody
	if err := json.Unmarshal(b, &rb); err != nil {
		return 0, 0, 0, false
	}
	return rb.Generation, rb.Staleness, rb.Iterations, true
}

// uintAfter parses the unsigned integer that starts skip bytes after
// position at in b.
func uintAfter(b []byte, at, skip int) (uint64, bool) {
	if at < 0 {
		return 0, false
	}
	j := at + skip
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(b[j:k]), 10, 64)
	return v, err == nil
}

// segments is how many consecutive slices of the stream ops_per_s is the
// median rate of.
const segments = 10

// opsPerSecond is the median, over segments consecutive slices of the
// stream, of acknowledged ops ÷ the slice's time (from the previous
// slice's last response to its own) less the probes taken in it. The
// median of slices keeps a second-long stall of the host out of the
// figure; every slice still counts its waits for refresh rounds and
// snapshots. Scaled, each op's share of the slice — the time since the
// response before it, waits and its probe included — is taken at the
// reference host speed of the last probe before it; a probe's own share
// is then exactly probeRef.
func (r *streamRun) opsPerSecond(scaled bool) float64 {
	n := len(r.res)
	rates := make([]float64, 0, segments)
	prev := r.start
	for s := 1; s <= segments; s++ {
		lo, hi := (s-1)*n/segments, s*n/segments
		last, done, wall := prev, 0, 0.0
		for _, x := range r.res[lo:hi] {
			if x.ok {
				done++
			}
			if !x.end.After(last) {
				continue // overlapped by another connection's op
			}
			share := x.end.Sub(last).Seconds()
			if scaled {
				share *= scaleAt(r.probes, x.end.Add(-x.lat))
			}
			wall, last = wall+share, x.end
		}
		for _, pr := range r.probes {
			if pr.at.After(prev) && !pr.at.After(last) {
				if scaled {
					wall -= probeRef.Seconds()
				} else {
					wall -= pr.took.Seconds()
				}
			}
		}
		if wall > 0 {
			rates = append(rates, float64(done)/wall)
		}
		prev = last
	}
	v, _ := quantile(rates, 500)
	return v
}

// acked reports which ops the server acknowledged.
func (r *streamRun) acked() []bool {
	out := make([]bool, len(r.res))
	for i, x := range r.res {
		out[i] = x.ok
	}
	return out
}

// checkExact ranks every tenant after the stream and compares the served
// scores with an independent cold HnD-power solve of the matrix the
// server must hold (set-up load plus every acknowledged write); the
// server's generation must match that matrix too. It returns the final
// ranking's Spearman correlation with the generator's abilities for the
// largest tenant, and one message per failed check.
func checkExact(p *plan, ls *liveServer, run *streamRun) (float64, []string) {
	c := newClient(ls.base)
	defer c.close()
	finals, err := rankAll(p, c)
	if err != nil {
		return 0, []string{err.Error()}
	}
	doc, err := c.metrics()
	if err != nil {
		return 0, []string{err.Error()}
	}
	acked := run.acked()
	var fails []string
	for t, td := range p.tenants {
		m := p.finalMatrix(t, acked)
		if g, ok := tenantNum(doc, td.name, "engine", "generation"); ok && uint64(g) != m.Generation() {
			fails = append(fails, fmt.Sprintf("%s: server at generation %d, expected %d", td.name, uint64(g), m.Generation()))
		}
		if finals[t].Staleness != 0 {
			fails = append(fails, fmt.Sprintf("%s: exact rank served %d generations stale", td.name, finals[t].Staleness))
		}
		cold, err := hitsndiffs.HND().Rank(context.Background(), m)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: cold reference solve: %v", td.name, err))
			continue
		}
		if rho := hitsndiffs.Spearman(finals[t].Scores, cold.Scores); !(rho >= agreeMin) {
			fails = append(fails, fmt.Sprintf("%s: served vs cold solve Spearman %.6f < %.3f", td.name, rho, agreeMin))
		}
	}
	return hitsndiffs.Spearman(finals[0].Scores, p.tenants[0].abilities), fails
}

// checkDurable verifies the durable workload: no rank was served more
// than the staleness bound behind; the final exact ranking (after one
// more refresh round) gives the accuracy; and after the server closes, a
// fresh serve.New on the same data dir recovers exactly the last
// acknowledged generation. It stops ls.
func checkDurable(p *plan, ls *liveServer, run *streamRun, dataDir string) (float64, []string) {
	var fails []string
	over, worst := 0, uint64(0)
	for i, r := range run.res {
		if r.ok && p.ops[i].kind == opRank && r.staleness > p.w.maxStale {
			over, worst = over+1, max(worst, r.staleness)
		}
	}
	if over > 0 {
		fails = append(fails, fmt.Sprintf("%d ranks served beyond the staleness bound %d (worst %d)", over, p.w.maxStale, worst))
	}
	name := p.tenants[0].name
	base, ok := tenantNum(run.before, name, "engine", "generation")
	if !ok {
		ls.stop()
		return 0, append(fails, "/metrics reports no engine.generation")
	}
	want := uint64(base)
	for i, o := range p.ops {
		if o.kind != opRank && run.res[i].ok {
			want += uint64(len(o.cells))
		}
	}

	c := newClient(ls.base)
	var accuracy float64
	if err := ls.tick(c); err != nil {
		fails = append(fails, err.Error())
	} else if finals, err := rankAll(p, c); err != nil {
		fails = append(fails, err.Error())
	} else {
		if finals[0].Staleness != 0 || finals[0].Generation != want {
			fails = append(fails, fmt.Sprintf("final rank at generation %d staleness %d, expected exact at %d",
				finals[0].Generation, finals[0].Staleness, want))
		}
		accuracy = hitsndiffs.Spearman(finals[0].Scores, p.tenants[0].abilities)
	}
	c.close()
	ls.stop()

	again, err := startServer(p.w, dataDir, nil)
	if err != nil {
		return accuracy, append(fails, fmt.Sprintf("recovery: %v", err))
	}
	defer again.stop()
	rc := newClient(again.base)
	defer rc.close()
	doc, err := rc.metrics()
	if err != nil {
		return accuracy, append(fails, err.Error())
	}
	if g, ok := tenantNum(doc, name, "engine", "generation"); !ok || uint64(g) != want {
		fails = append(fails, fmt.Sprintf("recovered generation %v (present %v), last acknowledged %d", uint64(g), ok, want))
	}
	return accuracy, fails
}
