package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hitsndiffs"
	"hitsndiffs/internal/irt"
	"hitsndiffs/internal/serve"
	"hitsndiffs/internal/testclock"
)

// testClient drives a serve.Server over real HTTP (httptest listens on a
// localhost TCP socket), decoding JSON like a real client would.
type testClient struct {
	t    *testing.T
	base string
	http *http.Client
}

// newTestServer starts a server with cfg behind httptest and returns it
// with a client; both are torn down with the test.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *testClient) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, &testClient{t: t, base: hs.URL, http: hs.Client()}
}

// post sends a JSON body and decodes the response into out when 2xx; it
// returns the status code and, for error statuses, the error body text.
func (c *testClient) post(path string, body, out any) (int, string) {
	c.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.t.Fatalf("%s: decode: %v (body %q)", path, err, raw)
		}
	}
	return resp.StatusCode, string(raw)
}

// postRaw sends body verbatim and returns the status, the response body
// and its headers.
func (c *testClient) postRaw(path, body string) (int, string, http.Header) {
	c.t.Helper()
	resp, err := c.http.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header
}

// get fetches path and decodes the JSON response into out.
func (c *testClient) get(path string, out any) int {
	c.t.Helper()
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 300 {
			c.t.Fatalf("%s: decode: %v", path, err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// mustCreate creates a tenant and fails the test on any error.
func (c *testClient) mustCreate(name string, users, items int, options ...int) {
	c.t.Helper()
	code, body := c.post("/v1/tenants", serve.CreateTenantRequest{Name: name, Users: users, Items: items, Options: options}, nil)
	if code != http.StatusCreated {
		c.t.Fatalf("create %s: HTTP %d: %s", name, code, body)
	}
}

// mustObserve applies a batch and fails the test on any error.
func (c *testClient) mustObserve(tenant string, obs []serve.Observation) {
	c.t.Helper()
	code, body := c.post("/v1/observebatch", serve.ObserveBatchRequest{Tenant: tenant, Observations: obs}, nil)
	if code != http.StatusOK {
		c.t.Fatalf("observebatch %s: HTTP %d: %s", tenant, code, body)
	}
}

// tenantEngine returns the named tenant's engine counter snapshot from
// /metrics.
func (c *testClient) tenantEngine(name string) hitsndiffs.EngineMetrics {
	c.t.Helper()
	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK {
		c.t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, ts := range snap.Tenants {
		if ts.Name == name {
			return ts.Engine
		}
	}
	c.t.Fatalf("/metrics: tenant %q missing", name)
	return hitsndiffs.EngineMetrics{}
}

// observationsOf flattens a dataset's matrix into wire observations.
func observationsOf(m *hitsndiffs.ResponseMatrix) []serve.Observation {
	var obs []serve.Observation
	for u := 0; u < m.Users(); u++ {
		for i := 0; i < m.Items(); i++ {
			if h := m.Answer(u, i); h != hitsndiffs.Unanswered {
				obs = append(obs, serve.Observation{User: u, Item: i, Option: h})
			}
		}
	}
	return obs
}

// goldenDataset picks the workload a method's constraints admit: the
// consistent C1P dataset for consistent-only methods, a binary workload
// for binary-only ones, and the default 3-option noisy workload otherwise
// (every dataset is homogeneous, so homogeneous-only methods take all).
func goldenDataset(t *testing.T, info hitsndiffs.MethodInfo) *hitsndiffs.ResponseMatrix {
	t.Helper()
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 40, 25, 11
	gen := irt.Generate
	if info.ConsistentOnly {
		gen = irt.GenerateC1P
	}
	if info.BinaryOnly {
		cfg.Options = 2
	}
	d, err := gen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.Responses
}

// TestHTTPGoldenEquivalence pins the serving tier's core contract: for
// every registered method, the scores served over HTTP are bitwise equal
// to a direct Engine.Rank over the same responses and options —
// encoding/json's shortest-round-trip float encoding loses nothing, and
// the serve layer adds nothing. Methods that reject a workload must
// reject it identically through HTTP.
func TestHTTPGoldenEquivalence(t *testing.T) {
	opts := []hitsndiffs.Option{hitsndiffs.WithSeed(42)}
	for _, info := range hitsndiffs.MethodInfos() {
		t.Run(info.Name, func(t *testing.T) {
			m := goldenDataset(t, info)

			eng, err := hitsndiffs.NewEngine(m, hitsndiffs.WithMethod(info.Name), hitsndiffs.WithRankOptions(opts...))
			if err != nil {
				t.Fatal(err)
			}
			want, directErr := eng.Rank(context.Background())

			_, c := newTestServer(t, serve.Config{Method: info.Name, RankOptions: opts})
			options := make([]int, m.Items())
			for i := range options {
				options[i] = m.OptionCount(i)
			}
			c.mustCreate("g", m.Users(), m.Items(), options...)
			c.mustObserve("g", observationsOf(m))
			var got serve.RankResponse
			code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "g"}, &got)

			if directErr != nil {
				if code < 400 {
					t.Fatalf("direct Rank failed (%v) but HTTP returned %d", directErr, code)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("HTTP rank failed %d (%s); direct succeeded", code, body)
			}
			if len(got.Scores) != len(want.Scores) {
				t.Fatalf("score length %d != %d", len(got.Scores), len(want.Scores))
			}
			for u := range want.Scores {
				if got.Scores[u] != want.Scores[u] {
					t.Fatalf("user %d: HTTP score %v != direct %v", u, got.Scores[u], want.Scores[u])
				}
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("metadata drifted: HTTP (%d, %v) != direct (%d, %v)",
					got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
		})
	}
}

// TestHTTPShardedEquivalence is the sharded twin of the golden test: a
// 4-shard tenant's HTTP scores must be bitwise equal to a direct
// ShardedEngine.Rank over the same responses.
func TestHTTPShardedEquivalence(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 120, 30, 5
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := []hitsndiffs.Option{hitsndiffs.WithSeed(7)}
	se, err := hitsndiffs.NewShardedEngine(d.Responses, hitsndiffs.WithShards(4), hitsndiffs.WithRankOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	want, err := se.Rank(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, serve.Config{Shards: 4, RankOptions: opts})
	c.mustCreate("s", cfg.Users, cfg.Items, cfg.Options)
	c.mustObserve("s", observationsOf(d.Responses))
	var got serve.RankResponse
	if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "s"}, &got); code != http.StatusOK {
		t.Fatalf("rank: HTTP %d: %s", code, body)
	}
	for u := range want.Scores {
		if got.Scores[u] != want.Scores[u] {
			t.Fatalf("user %d: HTTP score %v != direct sharded %v", u, got.Scores[u], want.Scores[u])
		}
	}
}

// TestHTTPInferLabelsEquivalence checks the truth-discovery endpoint
// against direct Engine.InferLabels, and that sharded tenants reject it.
func TestHTTPInferLabelsEquivalence(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 40, 20, 9
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := hitsndiffs.NewEngine(d.Responses, hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.InferLabels(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, serve.Config{RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(3)}})
	c.mustCreate("l", cfg.Users, cfg.Items, cfg.Options)
	c.mustObserve("l", observationsOf(d.Responses))
	var got serve.InferLabelsResponse
	if code, body := c.post("/v1/inferlabels", serve.InferLabelsRequest{Tenant: "l"}, &got); code != http.StatusOK {
		t.Fatalf("inferlabels: HTTP %d: %s", code, body)
	}
	if len(got.Labels) != len(want) {
		t.Fatalf("label count %d != %d", len(got.Labels), len(want))
	}
	for i := range want {
		if got.Labels[i] != want[i] {
			t.Fatalf("item %d: HTTP label %d != direct %d", i, got.Labels[i], want[i])
		}
	}

	_, cs := newTestServer(t, serve.Config{Shards: 4})
	cs.mustCreate("l", cfg.Users, cfg.Items, cfg.Options)
	if code, _ := cs.post("/v1/inferlabels", serve.InferLabelsRequest{Tenant: "l"}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("sharded inferlabels: HTTP %d, want 422", code)
	}
}

// TestInferLabelsReportsItsGeneration checks /v1/inferlabels tags its
// labels with the generation they were inferred at while writes land
// during the solves: every response's labels equal a fresh label
// inference on the matrix replayed to the generation it reports. The
// writes answer items nobody has answered yet, so single writes flip
// their labels, and the tight tolerance makes the engine's warm-started
// solves agree with the cold reference solves far below any vote margin.
func TestInferLabelsReportsItsGeneration(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 60, 20, 29
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := []hitsndiffs.Option{hitsndiffs.WithSeed(1), hitsndiffs.WithTol(1e-12)}
	_, c := newTestServer(t, serve.Config{RankOptions: opts})
	c.mustCreate("lab", cfg.Users, cfg.Items, cfg.Options)
	// Items 0–9 are answered up front; then the users answer items 10–19
	// one answer at a time, user by user.
	var setup, writes []serve.Observation
	for _, o := range observationsOf(d.Responses) {
		if o.Item < 10 {
			setup = append(setup, o)
		}
	}
	for u := 0; u < cfg.Users; u++ {
		for i := 10; i < cfg.Items; i++ {
			if h := d.Responses.Answer(u, i); h != hitsndiffs.Unanswered {
				writes = append(writes, serve.Observation{User: u, Item: i, Option: h})
			}
		}
	}
	var applied serve.ObserveResponse
	if code, body := c.post("/v1/observebatch", serve.ObserveBatchRequest{Tenant: "lab", Observations: setup}, &applied); code != http.StatusOK {
		t.Fatalf("observebatch: HTTP %d: %s", code, body)
	}
	base := applied.Generation // write j applies at generation base+j+1

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for _, o := range writes {
			if code, body := c.post("/v1/observe", serve.ObserveRequest{Tenant: "lab", User: o.User, Item: o.Item, Option: o.Option}, nil); code != http.StatusOK {
				t.Errorf("observe: HTTP %d: %s", code, body)
				return
			}
		}
	}()
	var got []serve.InferLabelsResponse
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
		}
		var lr serve.InferLabelsResponse
		if code, body := c.post("/v1/inferlabels", serve.InferLabelsRequest{Tenant: "lab"}, &lr); code != http.StatusOK {
			t.Fatalf("inferlabels: HTTP %d: %s", code, body)
		}
		got = append(got, lr)
	}
	if t.Failed() {
		return
	}

	ranker, err := hitsndiffs.New("HnD-power", opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]int)
	for _, lr := range got {
		if lr.Generation < base || lr.Generation > base+uint64(len(writes)) {
			t.Fatalf("labels at generation %d, outside [%d, %d]", lr.Generation, base, base+uint64(len(writes)))
		}
		labels, ok := want[lr.Generation]
		if !ok {
			m := hitsndiffs.NewResponseMatrix(cfg.Users, cfg.Items, cfg.Options)
			for _, o := range append(setup[:len(setup):len(setup)], writes[:lr.Generation-base]...) {
				m.SetAnswer(o.User, o.Item, o.Option)
			}
			res, err := ranker.Rank(context.Background(), m)
			if err != nil {
				t.Fatal(err)
			}
			if labels, err = hitsndiffs.InferLabels(m, res.Scores); err != nil {
				t.Fatal(err)
			}
			want[lr.Generation] = labels
		}
		for i := range labels {
			if lr.Labels[i] != labels[i] {
				t.Fatalf("generation %d item %d: served label %d, replayed %d", lr.Generation, i, lr.Labels[i], labels[i])
			}
		}
	}
	if len(want) < 2 {
		t.Fatalf("%d label responses saw %d generation(s); the writes never landed between them", len(got), len(want))
	}
}

// TestConcurrentRanksCoalesceToOneSolve is the coalescing proof: K
// concurrent requests for one tenant's matrix at one write generation cost
// exactly one engine solve, whoever asks. The engine's cache-miss counter
// is the ground truth — a call either rides the solve in flight
// (coalesced), leads it, or arrives after it finished and hits the result
// cache; none of those solves twice. It runs against the library Engine
// (Rank, Refresh and InferLabels mixed), over HTTP (/v1/rank and
// /v1/inferlabels mixed), and with a background refresh round racing a
// client rank.
func TestConcurrentRanksCoalesceToOneSolve(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 400, 60, 17
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const K = 16
	// concurrently runs K calls released together and waits for them all.
	concurrently := func(call func(i int)) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				call(i)
			}(i)
		}
		close(start)
		wg.Wait()
	}

	t.Run("engine", func(t *testing.T) {
		eng, err := hitsndiffs.NewEngine(d.Responses, hitsndiffs.WithRankOptions(hitsndiffs.WithSeed(1)))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var (
			mu        sync.Mutex
			results   []hitsndiffs.Result
			labelGens []uint64
		)
		concurrently(func(i int) {
			var res hitsndiffs.Result
			var err error
			switch i % 3 {
			case 0:
				res, err = eng.Rank(ctx)
			case 1:
				res, err = eng.Refresh(ctx)
			default:
				var gen uint64
				if _, gen, err = eng.InferLabels(ctx); err == nil {
					mu.Lock()
					labelGens = append(labelGens, gen)
					mu.Unlock()
				}
				if err != nil {
					t.Error(err)
				}
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			res.Scores[0] = float64(i) // every caller owns its slice
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		})
		if t.Failed() {
			return
		}
		if misses := eng.Metrics().CacheMisses; misses != 1 {
			t.Fatalf("%d concurrent Rank/Refresh/InferLabels calls at one generation cost %d solves, want exactly 1", K, misses)
		}
		want, err := eng.Rank(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			if res.Generation != want.Generation || res.Staleness != 0 {
				t.Fatalf("result at generation %d staleness %d, want %d exact", res.Generation, res.Staleness, want.Generation)
			}
			for u := 1; u < len(want.Scores); u++ {
				if res.Scores[u] != want.Scores[u] {
					t.Fatalf("coalesced scores diverged at user %d", u)
				}
			}
		}
		for _, gen := range labelGens {
			if gen != want.Generation {
				t.Fatalf("labels inferred at generation %d, want %d", gen, want.Generation)
			}
		}
	})

	t.Run("http", func(t *testing.T) {
		srv, c := newTestServer(t, serve.Config{RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(1)}})
		c.mustCreate("big", cfg.Users, cfg.Items, cfg.Options)
		c.mustObserve("big", observationsOf(d.Responses))
		if before := c.tenantEngine("big"); before.CacheMisses != 0 {
			t.Fatalf("engine solved before any rank: %+v", before)
		}
		var (
			mu     sync.Mutex
			ranks  []serve.RankResponse
			labels []serve.InferLabelsResponse
		)
		concurrently(func(i int) {
			if i%4 == 3 {
				var lr serve.InferLabelsResponse
				if code, body := c.post("/v1/inferlabels", serve.InferLabelsRequest{Tenant: "big"}, &lr); code != http.StatusOK {
					t.Errorf("inferlabels: HTTP %d: %s", code, body)
					return
				}
				mu.Lock()
				labels = append(labels, lr)
				mu.Unlock()
				return
			}
			var rr serve.RankResponse
			if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "big"}, &rr); code != http.StatusOK {
				t.Errorf("rank: HTTP %d: %s", code, body)
				return
			}
			mu.Lock()
			ranks = append(ranks, rr)
			mu.Unlock()
		})
		if t.Failed() {
			return
		}
		if solves := c.tenantEngine("big").CacheMisses; solves != 1 {
			t.Fatalf("%d concurrent same-generation requests cost %d solves, want exactly 1", K, solves)
		}
		snap := srv.Snapshot()
		if got := snap.RankLeaders + snap.RankCoalesced; got != uint64(len(ranks)) {
			t.Fatalf("flight accounting: %d leaders + %d coalesced != %d rank requests",
				snap.RankLeaders, snap.RankCoalesced, len(ranks))
		}
		for _, rr := range ranks[1:] {
			if rr.Generation != ranks[0].Generation {
				t.Fatalf("generations diverged: %d vs %d", rr.Generation, ranks[0].Generation)
			}
			for u := range ranks[0].Scores {
				if rr.Scores[u] != ranks[0].Scores[u] {
					t.Fatalf("coalesced scores diverged at user %d", u)
				}
			}
		}
		for _, lr := range labels {
			if lr.Generation != ranks[0].Generation {
				t.Fatalf("labels at generation %d, ranks at %d", lr.Generation, ranks[0].Generation)
			}
		}
	})

	t.Run("refresh-round", func(t *testing.T) {
		clk := testclock.NewFake()
		srv, c := newTestServer(t, serve.Config{
			MaxStaleness: 8,
			RefreshClock: clk,
			RankOptions:  []hitsndiffs.Option{hitsndiffs.WithSeed(1)},
		})
		clk.BlockUntilTickers(1)
		c.mustCreate("big", cfg.Users, cfg.Items, cfg.Options)
		c.mustObserve("big", observationsOf(d.Responses))
		done := make(chan serve.RankResponse, 1)
		go func() {
			var rr serve.RankResponse
			if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "big"}, &rr); code != http.StatusOK {
				t.Errorf("rank: HTTP %d: %s", code, body)
			}
			done <- rr
		}()
		clk.Advance(25 * time.Millisecond) // a refresh round races the client rank
		rr := <-done
		waitForCond(t, func() bool { return srv.Snapshot().Refresh.Rounds >= 1 })
		if t.Failed() {
			return
		}
		eng := c.tenantEngine("big")
		if eng.CacheMisses != 1 {
			t.Fatalf("a refresh round and a client rank at one generation cost %d solves, want exactly 1", eng.CacheMisses)
		}
		if rr.Generation != eng.Generation || eng.ServedGeneration != eng.Generation {
			t.Fatalf("rank at generation %d, served watermark %d, frontier %d", rr.Generation, eng.ServedGeneration, eng.Generation)
		}
	})
}

// TestCloseAbortsInflightSolve: Close cancels a rank's solve mid-iteration
// — here one that would never converge — and the request answers 503
// instead of running on.
func TestCloseAbortsInflightSolve(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed, cfg.DiscriminationMax = 2000, 30, 41, 2
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, serve.Config{RankOptions: []hitsndiffs.Option{
		hitsndiffs.WithTol(1e-30), hitsndiffs.WithMaxIter(1 << 30),
	}})
	c.mustCreate("slow", cfg.Users, cfg.Items, cfg.Options)
	c.mustObserve("slow", observationsOf(d.Responses))
	code := make(chan int, 1)
	go func() {
		got, _ := c.post("/v1/rank", serve.RankRequest{Tenant: "slow"}, nil)
		code <- got
	}()
	waitForCond(t, func() bool { return c.tenantEngine("slow").CacheMisses == 1 }) // the solve is running
	srv.Close()
	select {
	case got := <-code:
		if got != http.StatusServiceUnavailable {
			t.Fatalf("rank across Close: HTTP %d, want 503", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not abort the in-flight solve")
	}
}

// TestWriteBackpressure429 exercises the refresh-lag admission bound: once
// a tenant's write generation runs maxLag answers ahead of its last served
// rank, writes get 429 (with a Retry-After hint) until a rank catches the
// watermark up.
func TestWriteBackpressure429(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 30, 15, 23
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, serve.Config{MaxLag: 3})
	c.mustCreate("bp", cfg.Users, cfg.Items, cfg.Options)
	c.mustObserve("bp", observationsOf(d.Responses)) // generation g
	if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "bp"}, nil); code != http.StatusOK {
		t.Fatalf("rank: HTTP %d: %s", code, body) // served watermark = g
	}

	write := func() (int, string) {
		return c.post("/v1/observe", serve.ObserveRequest{Tenant: "bp", User: 0, Item: 0, Option: 1}, nil)
	}
	for i := 0; i < 3; i++ {
		if code, body := write(); code != http.StatusOK {
			t.Fatalf("write %d within lag bound: HTTP %d: %s", i, code, body)
		}
	}
	// Generation is now g+3, served watermark g: lag 3 hits the bound.
	req, _ := json.Marshal(serve.ObserveRequest{Tenant: "bp", User: 0, Item: 0, Option: 1})
	resp, err := c.http.Post(c.base+"/v1/observe", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("write beyond lag bound: HTTP %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
	if got := srv.Snapshot().WritesRejectedLagging; got != 1 {
		t.Fatalf("writes_rejected_lagging = %d, want 1", got)
	}

	// A rank advances the watermark and re-admits writes.
	if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: "bp"}, nil); code != http.StatusOK {
		t.Fatalf("catch-up rank: HTTP %d: %s", code, body)
	}
	if code, body := write(); code != http.StatusOK {
		t.Fatalf("write after catch-up rank: HTTP %d: %s", code, body)
	}
}

// TestMaxLagStartsAtLoadedGeneration: answers a tenant starts with owe no
// rank. A fresh sharded tenant starts at generation 0 and admits its first
// write; a tenant recovered from its data dir, sharded or not, admits
// writes under a lag bound far below its generation.
func TestMaxLagStartsAtLoadedGeneration(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 30, 15, 23
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	write := func(c *testClient, tenant string) (int, string) {
		return c.post("/v1/observe", serve.ObserveRequest{Tenant: tenant, User: 0, Item: 0, Option: 1}, nil)
	}
	t.Run("fresh-sharded", func(t *testing.T) {
		_, c := newTestServer(t, serve.Config{Shards: 4, MaxLag: 3})
		c.mustCreate("s", cfg.Users, cfg.Items, cfg.Options)
		if g := c.tenantEngine("s").Generation; g != 0 {
			t.Fatalf("fresh sharded tenant at generation %d, want 0", g)
		}
		if code, body := write(c, "s"); code != http.StatusOK {
			t.Fatalf("first write to a fresh sharded tenant: HTTP %d: %s", code, body)
		}
	})
	for _, shards := range []int{1, 4} {
		name := "recovered"
		if shards > 1 {
			name = "recovered-sharded"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, c := newTestServer(t, serve.Config{DataDir: dir, Shards: shards, MaxLag: 3})
			c.mustCreate("r", cfg.Users, cfg.Items, cfg.Options)
			c.mustObserve("r", observationsOf(d.Responses))
			srv.Close()
			_, c2 := newTestServer(t, serve.Config{DataDir: dir, Shards: shards, MaxLag: 3})
			if g := c2.tenantEngine("r").Generation; g < 3 {
				t.Fatalf("recovered tenant at generation %d, want its answers counted", g)
			}
			if code, body := write(c2, "r"); code != http.StatusOK {
				t.Fatalf("first write after recovery: HTTP %d: %s", code, body)
			}
		})
	}
}

// TestFreshTenantGenerationCountsAnswers: a tenant's generation counts
// the answers written to it, whatever its shard count — a fresh 3×2
// tenant reports 0, and 6 after its 6 answers, sharded or not, in memory
// or durable.
func TestFreshTenantGenerationCountsAnswers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		durable bool
	}{
		{"unsharded", 1, false},
		{"sharded", 4, false},
		{"sharded-durable", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serve.Config{Shards: tc.shards}
			if tc.durable {
				cfg.DataDir = t.TempDir()
			}
			_, c := newTestServer(t, cfg)
			c.mustCreate("q", 3, 2, 3, 3)
			if g := c.tenantEngine("q").Generation; g != 0 {
				t.Fatalf("fresh tenant at generation %d, want 0", g)
			}
			var obs []serve.Observation
			for u := 0; u < 3; u++ {
				for i := 0; i < 2; i++ {
					obs = append(obs, serve.Observation{User: u, Item: i, Option: (u + i) % 3})
				}
			}
			c.mustObserve("q", obs)
			if g := c.tenantEngine("q").Generation; g != 6 {
				t.Fatalf("tenant after 6 answers at generation %d, want 6", g)
			}
		})
	}
}

// TestDrain verifies the graceful-shutdown handshake: after StartDrain,
// /healthz flips to 503 "draining", new /v1 requests are rejected with
// 503, and /metrics stays readable for whoever is watching the drain.
func TestDrain(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 30, 15, 29
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, serve.Config{})
	c.mustCreate("d", cfg.Users, cfg.Items, cfg.Options)
	c.mustObserve("d", observationsOf(d.Responses))

	var health serve.HealthResponse
	if code := c.get("/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz before drain: %d %q", code, health.Status)
	}
	srv.StartDrain()
	if code := c.get("/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Fatalf("healthz during drain: %d %q, want 503 draining", code, health.Status)
	}
	// Drain rejections carry Retry-After so clients back off and retry
	// against the replacement instance instead of hammering the drain.
	for _, path := range []string{"/v1/rank", "/v1/observe"} {
		body, _ := json.Marshal(serve.RankRequest{Tenant: "d"})
		resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: HTTP %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s during drain: 503 without Retry-After header", path)
		}
	}
	var snap serve.Snapshot
	if code := c.get("/metrics", &snap); code != http.StatusOK || !snap.Draining {
		t.Fatalf("metrics during drain: %d draining=%v, want 200 true", code, snap.Draining)
	}
}

// TestRankBatchHTTP ranks several tenants in one request and checks each
// result matches its single-tenant rank bitwise.
func TestRankBatchHTTP(t *testing.T) {
	_, c := newTestServer(t, serve.Config{RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(4)}})
	names := []string{"a", "b", "c"}
	for i, name := range names {
		cfg := irt.DefaultConfig(irt.ModelSamejima)
		cfg.Users, cfg.Items, cfg.Seed = 30+10*i, 15, int64(31+i)
		d, err := irt.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.mustCreate(name, cfg.Users, cfg.Items, cfg.Options)
		c.mustObserve(name, observationsOf(d.Responses))
	}
	singles := make(map[string]serve.RankResponse)
	for _, name := range names {
		var rr serve.RankResponse
		if code, body := c.post("/v1/rank", serve.RankRequest{Tenant: name}, &rr); code != http.StatusOK {
			t.Fatalf("rank %s: HTTP %d: %s", name, code, body)
		}
		singles[name] = rr
	}
	var batch serve.RankBatchResponse
	if code, body := c.post("/v1/rankbatch", serve.RankBatchRequest{Tenants: names}, &batch); code != http.StatusOK {
		t.Fatalf("rankbatch: HTTP %d: %s", code, body)
	}
	if len(batch.Results) != len(names) {
		t.Fatalf("rankbatch returned %d results, want %d", len(batch.Results), len(names))
	}
	for i, name := range names {
		got, want := batch.Results[i], singles[name]
		if got.Tenant != name || got.Generation != want.Generation {
			t.Fatalf("result %d: tenant %q generation %d, want %q %d", i, got.Tenant, got.Generation, name, want.Generation)
		}
		for u := range want.Scores {
			if got.Scores[u] != want.Scores[u] {
				t.Fatalf("tenant %s user %d: batch score %v != single %v", name, u, got.Scores[u], want.Scores[u])
			}
		}
	}
	if code, _ := c.post("/v1/rankbatch", serve.RankBatchRequest{Tenants: []string{"a", "nope"}}, nil); code != http.StatusNotFound {
		t.Fatalf("rankbatch with unknown tenant: HTTP %d, want 404", code)
	}
}

// TestRankBodiesMatchEncodingJSON checks the /v1/rank and /v1/rankbatch
// bodies byte for byte against encoding/json's encoding of the response
// they decode to — the response the handler encoded, since every score
// round-trips — and that each carries a matching Content-Length.
func TestRankBodiesMatchEncodingJSON(t *testing.T) {
	_, c := newTestServer(t, serve.Config{RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(5)}})
	names := []string{"a", "<b&c> \u2028"}
	for i, name := range names {
		cfg := irt.DefaultConfig(irt.ModelSamejima)
		cfg.Users, cfg.Items, cfg.Seed = 40+25*i, 12, int64(51+i)
		d, err := irt.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.mustCreate(name, cfg.Users, cfg.Items, cfg.Options)
		c.mustObserve(name, observationsOf(d.Responses))
	}
	check := func(path string, req, resp any) {
		t.Helper()
		reqBody, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, body, hdr := c.postRaw(path, string(reqBody))
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, code, body)
		}
		if err := json.Unmarshal([]byte(body), resp); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if body != want.String() {
			t.Fatalf("%s body differs from encoding/json:\n got %s\nwant %s", path, body, want.String())
		}
		if cl := hdr.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", path, cl, len(body))
		}
	}
	for _, name := range names {
		check("/v1/rank", serve.RankRequest{Tenant: name}, &serve.RankResponse{})
	}
	check("/v1/rankbatch", serve.RankBatchRequest{Tenants: names}, &serve.RankBatchResponse{})
}

// TestRequestBodiesRejectTrailingData posts to every POST /v1 endpoint a
// request that decodes on its own, followed by trailing junk, by a second
// object or by itself again: each answers 400 "bad request body", and the
// rejected writes leave the tenant's generation and the tenant list as
// they were. The same requests followed only by whitespace decode.
func TestRequestBodiesRejectTrailingData(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	c.mustCreate("t0", 10, 5, 3)
	c.mustObserve("t0", []serve.Observation{{User: 0, Item: 0, Option: 1}, {User: 1, Item: 1, Option: 2}, {User: 2, Item: 0, Option: 0}})
	before := c.tenantEngine("t0")
	requests := []struct{ path, body string }{
		{"/v1/tenants", `{"name":"t1","users":4,"items":2,"options":[2]}`},
		{"/v1/observe", `{"tenant":"t0","user":3,"item":1,"option":2}`},
		{"/v1/observebatch", `{"tenant":"t0","observations":[{"user":3,"item":1,"option":2}]}`},
		{"/v1/rank", `{"tenant":"t0"}`},
		{"/v1/rankbatch", `{"tenants":["t0"]}`},
		{"/v1/inferlabels", `{"tenant":"t0"}`},
		{"/v1/admin/handoff", `{"tenant":"t0","shard":0,"action":"status"}`},
		{"/v1/admin/partition", `{"tenant":"t0"}`},
	}
	for _, r := range requests {
		for _, tail := range []string{" trailing junk", `{"tenant":"nope"}`, "\n" + r.body, "}", "]"} {
			code, body, _ := c.postRaw(r.path, r.body+tail)
			if code != http.StatusBadRequest || !strings.Contains(body, "bad request body") {
				t.Fatalf("%s with %q after the request: HTTP %d %s, want 400 bad request body", r.path, tail, code, body)
			}
		}
	}
	if after := c.tenantEngine("t0"); after.Generation != before.Generation {
		t.Fatalf("rejected writes moved t0: generation %d → %d", before.Generation, after.Generation)
	}
	var list serve.ListTenantsResponse
	if code := c.get("/v1/tenants", &list); code != http.StatusOK || len(list.Tenants) != 1 {
		t.Fatalf("rejected create: HTTP %d, tenants %+v", code, list.Tenants)
	}
	for _, r := range requests {
		if code, body, _ := c.postRaw(r.path, r.body+" \n\t"); strings.Contains(body, "bad request body") {
			t.Fatalf("%s followed by whitespace: HTTP %d %s", r.path, code, body)
		}
	}
	if after := c.tenantEngine("t0"); after.Generation != before.Generation+2 {
		t.Fatalf("accepted observe and observebatch: generation %d → %d, want +2", before.Generation, after.Generation)
	}
}

// TestHTTPErrorStatuses sweeps the client-error surface: bad JSON,
// unknown tenants, duplicate creation, bad geometry, out-of-range
// observations.
func TestHTTPErrorStatuses(t *testing.T) {
	_, c := newTestServer(t, serve.Config{})
	c.mustCreate("e", 10, 5, 3)

	resp, err := c.http.Post(c.base+"/v1/rank", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: HTTP %d, want 400", resp.StatusCode)
	}
	if code, _ := c.post("/v1/rank", serve.RankRequest{Tenant: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown tenant: HTTP %d, want 404", code)
	}
	if code, _ := c.post("/v1/tenants", serve.CreateTenantRequest{Name: "e", Users: 4, Items: 2, Options: []int{2}}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate tenant: HTTP %d, want 409", code)
	}
	if code, _ := c.post("/v1/tenants", serve.CreateTenantRequest{Name: "bad", Users: 0, Items: 2, Options: []int{2}}, nil); code != http.StatusBadRequest {
		t.Fatalf("zero users: HTTP %d, want 400", code)
	}
	if code, _ := c.post("/v1/observe", serve.ObserveRequest{Tenant: "e", User: 99, Item: 0, Option: 0}, nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range observation: HTTP %d, want 400", code)
	}
}

// TestStressMixedTrafficRace hammers one server with concurrent mixed
// traffic — observes, ranks, batch ranks, label inference, metrics
// scrapes — over real HTTP. Its job is to give the race detector surface
// area across the serve layer, the coalescing map, the admission
// controller and the engines; any data race fails the run under
// `go test -race`.
func TestStressMixedTrafficRace(t *testing.T) {
	cfg := irt.DefaultConfig(irt.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Seed = 60, 20, 37
	d, err := irt.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, serve.Config{
		RankOptions:       []hitsndiffs.Option{hitsndiffs.WithSeed(2), hitsndiffs.WithTol(1e-3)},
		MaxInflightWrites: 4,
		MaxLag:            64,
	})
	for _, name := range []string{"s0", "s1"} {
		c.mustCreate(name, cfg.Users, cfg.Items, cfg.Options)
		c.mustObserve(name, observationsOf(d.Responses))
	}

	allowed := map[int]bool{
		http.StatusOK:              true,
		http.StatusTooManyRequests: true, // admission backpressure
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				name := fmt.Sprintf("s%d", rng.Intn(2))
				var code int
				switch rng.Intn(5) {
				case 0:
					code, _ = c.post("/v1/observe", serve.ObserveRequest{
						Tenant: name, User: rng.Intn(cfg.Users), Item: rng.Intn(cfg.Items), Option: rng.Intn(cfg.Options),
					}, nil)
				case 1:
					code, _ = c.post("/v1/rankbatch", serve.RankBatchRequest{Tenants: []string{"s0", "s1"}}, nil)
				case 2:
					code, _ = c.post("/v1/inferlabels", serve.InferLabelsRequest{Tenant: name}, nil)
				case 3:
					code = c.get("/metrics", nil)
				default:
					code, _ = c.post("/v1/rank", serve.RankRequest{Tenant: name}, nil)
				}
				if !allowed[code] {
					t.Errorf("worker %d: unexpected HTTP %d", w, code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
