package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hitsndiffs/internal/serve"
	"hitsndiffs/internal/testclock"
)

// refreshInterval is the scheduler period on the virtual clock; the
// benchmark advances the clock by exactly one period per tick.
const refreshInterval = 25 * time.Millisecond

// loadChunk is the set-up load's answers per /v1/observebatch request.
const loadChunk = 8192

// opHeader carries the op id of a traced request to the handler span.
const opHeader = "X-Bench-Op"

// wrapper wraps the server's handler (the traced pass's middleware).
type wrapper = func(http.Handler) http.Handler

// liveServer is the real serving tier on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	clock  *testclock.Fake // nil when the workload runs no scheduler
	rounds float64         // refresh rounds seen to complete
}

// startServer runs serve.New with the workload's settings (recovering
// dataDir when the workload is durable) behind a loopback listener. wrap,
// when non-nil, wraps the server's handler (the traced pass's middleware).
func startServer(w *workload, dataDir string, wrap wrapper) (*liveServer, error) {
	cfg := serve.Config{Method: "HnD-power", Shards: w.shards, MaxStaleness: w.maxStale}
	var clk *testclock.Fake
	if w.maxStale > 0 {
		clk = testclock.NewFake()
		cfg.RefreshClock, cfg.RefreshInterval = clk, refreshInterval
	}
	if w.durable {
		cfg.DataDir = dataDir
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		clock:  clk,
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	if clk != nil {
		// The scheduler creates its ticker on its own goroutine; a tick
		// advanced before the ticker exists would be lost.
		clk.BlockUntilTickers(1)
	}
	return ls, nil
}

// stop shuts the listener down, waits for the serving goroutine and every
// handler to return, and closes the server (flushing durable logs).
func (ls *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // in-flight handlers finish; a timeout falls through to Close
	<-ls.served
	ls.srv.Close()
}

// pollPause is the pause between two reads of /metrics that wait for
// background work. The work runs on the same single P as the benchmark,
// so reading back to back would take the P from it for most of the wait;
// each pause lets the work run alone, and delays the end of the wait by
// at most about one pause.
const pollPause = 200 * time.Microsecond

// tick advances the virtual clock by one refresh period and waits until
// /metrics shows the round completed.
func (ls *liveServer) tick(c *client) error {
	want := ls.rounds + 1
	ls.clock.Advance(refreshInterval)
	for {
		doc, err := c.metrics()
		if err != nil {
			return err
		}
		r, ok := num(doc, "refresh", "rounds")
		if !ok {
			return errors.New("/metrics reports no refresh.rounds")
		}
		if r >= want {
			ls.rounds = r
			return nil
		}
		time.Sleep(pollPause)
	}
}

// client is one closed-loop HTTP/1.1 connection to the server.
type client struct {
	base  string
	tr    *http.Transport
	hc    *http.Client
	buf   bytes.Buffer
	trace bool      // send the op id header
	sent  time.Time // when the last request was handed to the transport
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

// close drops the client's idle connection.
func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response. The latency runs from
// handing the request to the transport to reading the last body byte. The
// returned body is valid until the next call.
func (c *client) do(method, path string, body []byte, opID int) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.trace && opID >= 0 {
		req.Header.Set(opHeader, strconv.Itoa(opID))
	}
	c.buf.Reset()
	c.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(c.sent), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(c.sent), err
}

// post JSON-encodes v and posts it, failing on any status but want.
func (c *client) post(path string, v any, want int) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	code, resp, _, err := c.do(http.MethodPost, path, body, -1)
	if err != nil {
		return nil, fmt.Errorf("POST %s: %w", path, err)
	}
	if code != want {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, code, bytes.TrimSpace(resp))
	}
	return resp, nil
}

// metrics reads GET /metrics as untyped JSON, so a counter a later change
// removes reads as absent instead of failing the decode.
func (c *client) metrics() (map[string]any, error) {
	code, body, _, err := c.do(http.MethodGet, "/metrics", nil, -1)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return doc, nil
}

// num reads a number at a path of an untyped /metrics document.
func num(doc any, path ...string) (float64, bool) {
	for _, k := range path {
		m, ok := doc.(map[string]any)
		if !ok {
			return 0, false
		}
		if doc, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := doc.(float64)
	return v, ok
}

// tenantSum sums a number at a path under every entry of /metrics tenants.
func tenantSum(doc map[string]any, path ...string) (float64, bool) {
	ts, ok := doc["tenants"].([]any)
	if !ok || len(ts) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, t := range ts {
		v, ok := num(t, path...)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum, true
}

// tenantNum reads a number at a path under the named /metrics tenant.
func tenantNum(doc map[string]any, name string, path ...string) (float64, bool) {
	ts, _ := doc["tenants"].([]any)
	for _, t := range ts {
		if m, ok := t.(map[string]any); ok && m["name"] == name {
			return num(t, path...)
		}
	}
	return 0, false
}

// rankBody is the part of a rank response the benchmark reads. It names
// only fields the served ranking itself needs.
type rankBody struct {
	Generation uint64    `json:"generation"`
	Staleness  uint64    `json:"staleness"`
	Scores     []float64 `json:"scores"`
	Iterations int       `json:"iterations"`
}

// createTenants registers every tenant of the plan.
func createTenants(p *plan, c *client) error {
	for _, t := range p.tenants {
		req := serve.CreateTenantRequest{Name: t.name, Users: t.users, Items: items, Options: []int{t.options}}
		if _, err := c.post("/v1/tenants", req, http.StatusCreated); err != nil {
			return err
		}
	}
	return nil
}

// loadTenants sends every tenant's set-up answers through /v1/observebatch,
// each chunk as one call of send.
func loadTenants(p *plan, c *client, send func(func() error) error) error {
	for _, t := range p.tenants {
		for lo := 0; lo < len(t.setup); lo += loadChunk {
			req := serve.ObserveBatchRequest{Tenant: t.name, Observations: wireCells(t.setup[lo:min(lo+loadChunk, len(t.setup))])}
			if err := send(func() error {
				_, err := c.post("/v1/observebatch", req, http.StatusOK)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// untimed runs a set-up step without timing it.
func untimed(step func() error) error { return step() }

// rankAll ranks every tenant once and returns the decoded responses.
func rankAll(p *plan, c *client) ([]rankBody, error) {
	out := make([]rankBody, len(p.tenants))
	for i, t := range p.tenants {
		body, err := c.post("/v1/rank", serve.RankRequest{Tenant: t.name}, http.StatusOK)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			return nil, fmt.Errorf("rank %s: %w", t.name, err)
		}
	}
	return out, nil
}

func wireCells(cs []cell) []serve.Observation {
	obs := make([]serve.Observation, len(cs))
	for i, c := range cs {
		obs[i] = serve.Observation{User: c.user, Item: c.item, Option: c.option}
	}
	return obs
}

// prewrite builds the durable workload's pristine data dir: a server on an
// empty dir receives the set-up load and shuts down cleanly. Untimed.
func prewrite(p *plan, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	ls, err := startServer(p.w, dir, nil)
	if err != nil {
		return err
	}
	c := newClient(ls.base)
	defer c.close()
	defer ls.stop()
	if err := createTenants(p, c); err != nil {
		return err
	}
	return loadTenants(p, c, untimed)
}

// setupTime is one set-up's wall time and its time at the reference host
// speed.
type setupTime struct {
	wall   time.Duration
	scaled float64 // seconds
}

// stepTimer times a set-up step by step, with a host-speed probe before
// the first step and after each one: each step's time is scaled by the
// mean of the two probes around it, so a change of host speed within a
// set-up is followed step by step. Only the steps count as set-up time.
type stepTimer struct {
	setupTime
	last time.Duration // the latest probe
}

func newStepTimer() *stepTimer { return &stepTimer{last: hostProbe()} }

// step runs and times one set-up step.
func (t *stepTimer) step(f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	after := hostProbe()
	t.wall += d
	t.scaled += d.Seconds() * scale((t.last+after)/2)
	t.last = after
	return err
}

// setup brings a fresh server to the first successful rank of every
// tenant and returns it with the time that took: from serve.New, which
// recovers the data dir of a durable workload, through the set-up load of
// the others, to the last tenant's first rank. A durable run first copies
// the pristine data dir, untimed, so every set-up recovers the same bytes.
func setup(p *plan, pristine, dataDir string, wrap wrapper) (*liveServer, setupTime, error) {
	if p.w.durable {
		if err := copyDir(pristine, dataDir); err != nil {
			return nil, setupTime{}, err
		}
	}
	st := newStepTimer()
	var ls *liveServer
	if err := st.step(func() (err error) {
		ls, err = startServer(p.w, dataDir, wrap)
		return err
	}); err != nil {
		return nil, setupTime{}, err
	}
	c := newClient(ls.base)
	defer c.close()
	var err error
	if !p.w.durable {
		err = st.step(func() error { return createTenants(p, c) })
		if err == nil {
			err = loadTenants(p, c, st.step)
		}
	}
	for _, t := range p.tenants {
		if err == nil {
			err = st.step(func() error {
				_, err := c.post("/v1/rank", serve.RankRequest{Tenant: t.name}, http.StatusOK)
				return err
			})
		}
	}
	if err != nil {
		ls.stop()
		return nil, setupTime{}, fmt.Errorf("set-up: %w", err)
	}
	return ls, st.setupTime, nil
}

// copyDir replaces dst with a copy of the regular files and directories
// under src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
