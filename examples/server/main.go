// Server: the network face of the library. Everything the serving
// examples do in-process — engines, caches, shards — hndserver exposes
// over HTTP JSON, and this walkthrough drives that surface end to end
// from the client side: it embeds the same internal/serve tier hndserver
// wraps, points plain net/http at it, and shows the three serving-tier
// behaviours in order:
//
//  1. Request coalescing — concurrent ranks of one tenant at one write
//     generation share a single engine solve (verified via /metrics).
//  2. Admission control — a write flood outrunning rank refresh is pushed
//     back with 429 + Retry-After instead of growing an unbounded queue.
//  3. Graceful drain — after shutdown begins, /healthz flips to 503
//     "draining" and new work is rejected while in-flight work finishes.
//
// Run with: go run ./examples/server
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"

	"hitsndiffs"
	"hitsndiffs/internal/serve"
)

// post sends one JSON request and decodes the response into out (when
// non-nil and the status is 2xx), returning the HTTP status.
func post(url string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 300 && out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func main() {
	// The serving tier hndserver wraps, embedded on an ephemeral port.
	// MaxLag=4 keeps the backpressure demo small: a tenant's write
	// generation may run at most 4 answers ahead of its last served rank.
	srv, err := serve.New(serve.Config{
		RankOptions: []hitsndiffs.Option{hitsndiffs.WithSeed(7)},
		MaxLag:      4,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", ln.Addr())

	// A tenant is a named response matrix: 120 users on a 40-question,
	// 4-option assessment. Its answers arrive over the wire.
	cfg := hitsndiffs.DefaultGeneratorConfig(hitsndiffs.ModelSamejima)
	cfg.Users, cfg.Items, cfg.Options, cfg.Seed = 120, 40, 4, 11
	d, err := hitsndiffs.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if code, err := post(base+"/v1/tenants", serve.CreateTenantRequest{
		Name: "midterm", Users: cfg.Users, Items: cfg.Items, Options: []int{cfg.Options},
	}, nil); err != nil || code != http.StatusCreated {
		log.Fatalf("create tenant: %d %v", code, err)
	}
	var obs []serve.Observation
	for u := 0; u < cfg.Users; u++ {
		for i := 0; i < cfg.Items; i++ {
			if h := d.Responses.Answer(u, i); h != hitsndiffs.Unanswered {
				obs = append(obs, serve.Observation{User: u, Item: i, Option: h})
			}
		}
	}
	var applied serve.ObserveResponse
	if code, err := post(base+"/v1/observebatch", serve.ObserveBatchRequest{Tenant: "midterm", Observations: obs}, &applied); err != nil || code != http.StatusOK {
		log.Fatalf("observebatch: %d %v", code, err)
	}
	fmt.Printf("tenant midterm: %d observations ingested in one batch (write generation %d)\n\n", len(obs), applied.Generation)

	// 1. Coalescing: eight clients ask for the ranking at once. They all
	// arrive at one write generation, so the engine runs one solve and
	// every response shares it — /metrics proves the engine solved once.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rr serve.RankResponse
			if code, err := post(base+"/v1/rank", serve.RankRequest{Tenant: "midterm"}, &rr); err != nil || code != http.StatusOK {
				log.Fatalf("rank: %d %v", code, err)
			}
		}()
	}
	wg.Wait()
	snap := metrics(base)
	fmt.Printf("8 concurrent ranks: %d engine solve(s), %d coalesced, %d served from caches\n",
		snap.Tenants[0].Engine.CacheMisses, snap.RankCoalesced,
		8-int(snap.Tenants[0].Engine.CacheMisses)-int(snap.RankCoalesced))

	// 2. Backpressure: stream single-answer revisions without ranking.
	// Each write advances the generation by one answer; once it runs
	// MaxLag=4 ahead of the last served rank the server answers 429 until a
	// rank catches up.
	admitted, rejected := 0, 0
	for w := 0; w < 8; w++ {
		code, err := post(base+"/v1/observe", serve.ObserveRequest{Tenant: "midterm", User: w, Item: 0, Option: 1}, nil)
		if err != nil {
			log.Fatal(err)
		}
		if code == http.StatusTooManyRequests {
			rejected++
		} else {
			admitted++
		}
	}
	fmt.Printf("write flood without ranking: %d admitted, %d pushed back with 429\n", admitted, rejected)
	if code, err := post(base+"/v1/rank", serve.RankRequest{Tenant: "midterm"}, nil); err != nil || code != http.StatusOK {
		log.Fatalf("catch-up rank: %d %v", code, err)
	}
	if code, err := post(base+"/v1/observe", serve.ObserveRequest{Tenant: "midterm", User: 0, Item: 1, Option: 2}, nil); err != nil || code != http.StatusOK {
		log.Fatalf("write after catch-up: %d %v", code, err)
	}
	fmt.Printf("after a catch-up rank the same write is admitted again\n\n")

	// 3. Drain: begin graceful shutdown. Health flips to 503 "draining"
	// (load balancers stop routing), new work is rejected, and the HTTP
	// server then waits out whatever is still in flight.
	srv.StartDrain()
	health, _ := http.Get(base + "/healthz")
	var h serve.HealthResponse
	_ = json.NewDecoder(health.Body).Decode(&h)
	health.Body.Close()
	code, err := post(base+"/v1/rank", serve.RankRequest{Tenant: "midterm"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("draining: healthz=%d(%s), new rank=%d\n", health.StatusCode, h.Status, code)
	_ = httpSrv.Close()
	srv.Close()
	fmt.Println("drained; final request count:", metricsOf(snapFinal(srv)))
}

// metrics scrapes /metrics into a serve.Snapshot.
func metrics(base string) serve.Snapshot {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	return snap
}

// snapFinal reads the server's counters directly once HTTP is down.
func snapFinal(srv *serve.Server) serve.Snapshot { return srv.Snapshot() }

// metricsOf renders the headline counters of a snapshot.
func metricsOf(s serve.Snapshot) string {
	return fmt.Sprintf("%d requests, %d errors, %d observations, %d lag rejections",
		s.Requests, s.Errors, s.Observations, s.WritesRejectedLagging)
}
