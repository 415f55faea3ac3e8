package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"hitsndiffs"
)

// Op kinds of the measured stream.
const (
	opRank    = iota // POST /v1/rank
	opObserve        // POST /v1/observe, one answer
	opBatch          // POST /v1/observebatch, workload.batch answers
)

// items is the item count of every tenant (the paper's default m = 100).
const items = 100

// cell is one (user, item, option) answer.
type cell struct{ user, item, option int }

// op is one request of the measured stream.
type op struct {
	kind   int
	tenant int
	cells  []cell // the answers a write sends; nil for ranks
}

// workload fixes everything a run depends on except its seed and the
// length of its stream. The fields are constants of the benchmark: the
// command line names a workload and gets exactly these settings.
type workload struct {
	name  string
	why   string
	loads string // layers the workload does its work in
	skips string // layers it bypasses

	model      hitsndiffs.ModelKind
	sizes      []int   // users per tenant; tenant 0 is the largest
	answerProb float64 // generator answer probability
	setupFrac  float64 // share of the generated answers loaded during set-up

	conns        int     // closed-loop HTTP connections
	alternate    bool    // the stream is observe, rank, observe, rank, ...
	rankShare    float64 // share of ranks when not alternating
	batch        int     // answers per write; 1 uses /v1/observe
	zipf         float64 // tenant pick exponent (several tenants only)
	shards       int     // engine shards per tenant (0 or 1 = plain Engine)
	durable      bool    // tenants live in a WAL data dir, recovered at set-up
	maxStale     uint64  // serve.Config.MaxStaleness
	refreshEvery int     // ops between virtual refresh ticks; 0 = no scheduler

	opsPerSec int // sizes the stream: ops = opsPerSec × --seconds
	minOps    int // floor so every latency class has ≥ 1000 samples
	setupReps int // set-ups per run; setup_s is their median
}

// fleetSizes is hndload's zipfian tenant ladder: tenant t has
// top/(t+1)^s users, floored at floor.
func fleetSizes(n, top, floor int, s float64) []int {
	out := make([]int, n)
	for t := range out {
		out[t] = max(floor, int(float64(top)/math.Pow(float64(t+1), s)))
	}
	return out
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json bounds
// write-rank and ingest-durable; read-fleet runs by name (see NOTES.md).
var workloads = []*workload{
	{
		name:  "write-rank",
		why:   "every rank is a warm re-solve after one write: the warm single-write re-rank path",
		loads: "serve (score encoding), engine (COW clone), response (normalized splice), core (warm solve), runtime",
		skips: "durable, sharding, refresh",
		model: hitsndiffs.ModelGRM, sizes: []int{2000}, answerProb: 0.5, setupFrac: 0.5,
		conns: 1, alternate: true, batch: 1,
		opsPerSec: 400, minOps: 2000, setupReps: 15,
	},
	{
		name:  "read-fleet",
		why:   "most ranks are cache hits on a 16-tenant fleet: routing, encoding and coalescing dominate",
		loads: "serve (routing, encoding, coalescing), engine (cache hit path), runtime",
		skips: "durable, sharding, refresh; core runs only after the rare writes",
		model: hitsndiffs.ModelSamejima, sizes: fleetSizes(16, 2000, 50, 1.2), answerProb: 1, setupFrac: 0.9,
		conns: 2, rankShare: 0.95, batch: 1, zipf: 1.2,
		opsPerSec: 2000, minOps: 20000, setupReps: 5,
	},
	{
		name:  "ingest-durable",
		why:   "batched writes into a 4-shard WAL tenant with stale-bounded ranks and virtual-clock refresh",
		loads: "durable (append, fsync, snapshots, recovery), sharding (fan-out, shard solves, merge), refresh, serve",
		skips: "exact rank solves: ranks are stale serves",
		model: hitsndiffs.ModelBock, sizes: []int{4000}, answerProb: 1, setupFrac: 0.3,
		conns: 1, rankShare: 0.2, batch: 16, shards: 4, durable: true, maxStale: 512, refreshEvery: 8,
		opsPerSec: 340, minOps: 5000, setupReps: 7,
	},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// tenantData is one generated tenant: its geometry, the generator's hidden
// abilities, the answers loaded during set-up, and the pool the stream's
// writes draw from in order.
type tenantData struct {
	name      string
	users     int
	options   int
	abilities []float64
	setup     []cell
	pool      []cell
}

// plan is everything one run sends: the tenants and the op stream, all
// derived from the workload and the seed.
type plan struct {
	w       *workload
	seed    int64
	tenants []*tenantData
	ops     []op
	digest  string
}

// streamLength is the number of ops a run of the given length executes:
// fixed by the workload and --seconds, never by the clock, so two runs of
// one seed send the same requests.
func streamLength(w *workload, seconds int) int {
	n := max(w.minOps, w.opsPerSec*seconds)
	if w.alternate && n%2 == 1 {
		n++
	}
	return n
}

// newPlan generates the tenants and the op stream of one run.
func newPlan(w *workload, seed int64, seconds int) (*plan, error) {
	p := &plan{w: w, seed: seed}
	for t, users := range w.sizes {
		td, err := genTenant(w, seed, t, users)
		if err != nil {
			return nil, err
		}
		p.tenants = append(p.tenants, td)
	}
	p.ops = genStream(w, seed, p.tenants, streamLength(w, seconds))
	p.digest = digest(p)
	return p, nil
}

// genTenant draws one tenant from the in-repo IRT generator with the
// paper's defaults and splits its answers, shuffled, into the set-up load
// and the stream's write pool.
func genTenant(w *workload, seed int64, t, users int) (*tenantData, error) {
	cfg := hitsndiffs.DefaultGeneratorConfig(w.model)
	cfg.Users, cfg.Items, cfg.AnswerProb = users, items, w.answerProb
	cfg.Seed = seed*1_000_003 + int64(t)
	ds, err := hitsndiffs.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate tenant %d: %w", t, err)
	}
	var cells []cell
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if a := ds.Responses.Answer(u, i); a != hitsndiffs.Unanswered {
				cells = append(cells, cell{u, i, a})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	k := int(math.Round(w.setupFrac * float64(len(cells))))
	return &tenantData{
		name:      fmt.Sprintf("t%02d", t),
		users:     users,
		options:   cfg.Options,
		abilities: ds.Abilities,
		setup:     cells[:k],
		pool:      cells[k:],
	}, nil
}

// genStream draws the op stream: the exact class mix of the workload in a
// seeded order, tenants picked zipfian, writes taking the next unused
// answers of their tenant's pool (so no cell is written twice and the final
// matrix does not depend on how two connections interleave).
func genStream(w *workload, seed int64, ts []*tenantData, n int) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	write := opObserve
	if w.batch > 1 {
		write = opBatch
	}
	kinds := make([]int, n)
	if w.alternate {
		for i := range kinds {
			kinds[i] = write
			if i%2 == 1 {
				kinds[i] = opRank
			}
		}
	} else {
		ranks := int(math.Round(w.rankShare * float64(n)))
		for i := range kinds {
			kinds[i] = write
			if i < ranks {
				kinds[i] = opRank
			}
		}
		rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	}
	var zf *rand.Zipf
	if len(ts) > 1 {
		zf = rand.NewZipf(rng, w.zipf, 1, uint64(len(ts)-1))
	}
	next := make([]int, len(ts))
	ops := make([]op, n)
	for i, k := range kinds {
		t := 0
		if zf != nil {
			t = int(zf.Uint64())
		}
		o := op{kind: k, tenant: t}
		if k != opRank {
			if next[t]+w.batch > len(ts[t].pool) {
				o.kind = opRank // pool exhausted: never reached at the shipped sizes
			} else {
				o.cells = ts[t].pool[next[t] : next[t]+w.batch]
				next[t] += w.batch
			}
		}
		ops[i] = o
	}
	return ops
}

// digest fingerprints everything the server will be sent: tenant
// geometries, set-up loads and the op stream.
func digest(p *plan) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(p.w.name))
	for _, t := range p.tenants {
		put(t.users)
		put(t.options)
		put(len(t.setup))
		for _, c := range t.setup {
			put(c.user)
			put(c.item)
			put(c.option)
		}
	}
	put(len(p.ops))
	for _, o := range p.ops {
		put(o.kind)
		put(o.tenant)
		for _, c := range o.cells {
			put(c.user)
			put(c.item)
			put(c.option)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// finalMatrix rebuilds a tenant's matrix as the server must hold it after
// the set-up load and every acknowledged write of the stream.
func (p *plan) finalMatrix(t int, acked []bool) *hitsndiffs.ResponseMatrix {
	td := p.tenants[t]
	m := hitsndiffs.NewResponseMatrix(td.users, items, td.options)
	for _, c := range td.setup {
		m.SetAnswer(c.user, c.item, c.option)
	}
	for i, o := range p.ops {
		if o.tenant == t && o.kind != opRank && acked[i] {
			for _, c := range o.cells {
				m.SetAnswer(c.user, c.item, c.option)
			}
		}
	}
	return m
}
