package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/data"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workload"
)

// fleetShards is K for the HTTP fleet.
const fleetShards = 2

// loopback is an http.Server on a 127.0.0.1 port, served from one
// goroutine that close waits for.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

func (lb *loopback) close() {
	lb.srv.Close()
	<-lb.done
}

// countingTransport is the coordinator's http.RoundTripper: it counts
// RPCs and body bytes and the wall time during which any RPC is in
// flight. An RPC ends when its response body is read to the end or
// closed.
type countingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	c         rpcCounts
	inFlight  int
	busySince time.Time
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.c.calls++
	if req.ContentLength > 0 {
		t.c.bytes += req.ContentLength
	}
	if t.inFlight == 0 {
		t.busySince = time.Now()
	}
	t.inFlight++
	t.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.end(0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t}
	return resp, nil
}

func (t *countingTransport) end(n int64) {
	t.mu.Lock()
	t.c.bytes += n
	t.inFlight--
	if t.inFlight == 0 {
		t.c.busyNS += time.Since(t.busySince).Nanoseconds()
	}
	t.mu.Unlock()
}

func (t *countingTransport) addCommit(ns int64) {
	t.mu.Lock()
	t.c.commitNS += ns
	t.mu.Unlock()
}

func (t *countingTransport) counts() rpcCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

type countingBody struct {
	io.ReadCloser
	t    *countingTransport
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.t.end(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.t.end(b.n) })
	return b.ReadCloser.Close()
}

// timeCommits wraps a node's internal handler to time the commit RPCs
// it serves: that is where a node appends and fsyncs its WAL.
func timeCommits(h http.Handler, t *countingTransport) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/internal/commit" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.addCommit(time.Since(start).Nanoseconds())
	})
}

// fleet is K loopback cluster nodes, each over its own data dir, a
// coordinator, and the HTTP frontend in front of it, all in the
// benchmark's process. The client speaks to the frontend over one
// keep-alive connection.
type fleet struct {
	nodes  []*cluster.Node
	srvs   []*loopback
	coord  *cluster.Engine
	front  *loopback
	rt     *countingTransport
	client *http.Client
	hc     *http.Client // coordinator's

	in                   *inputs
	bodies, tracedBodies [][]byte
	// bounds caches each parameter's static access bound, asked of the
	// coordinator's planner on the parameter's first (warm-up) query:
	// the wire carries the fetched count only.
	bounds []int64
	// traceApply asks the frontend's handler to trace the next apply;
	// applyRoots carries its span tree back to the client.
	traceApply atomic.Bool
	applyRoots chan *obs.Span
}

// startFleet starts the nodes over dir/node-i and a coordinator over
// them; load pushes inst through the coordinator, otherwise the nodes
// recover from their dirs and the coordinator attaches.
func startFleet(ctx context.Context, dir string, inst *data.Instance) (*fleet, error) {
	s, a := workload.AccidentSchema(), workload.AccidentConstraints()
	f := &fleet{rt: &countingTransport{base: &http.Transport{MaxIdleConnsPerHost: 16}}}
	urls := make([]string, fleetShards)
	for i := 0; i < fleetShards; i++ {
		n, err := cluster.NewNode(s, a, i, fleetShards, cluster.Options{})
		if err != nil {
			f.close()
			return nil, err
		}
		restored, err := n.Durable(ctx, filepath.Join(dir, fmt.Sprintf("node-%d", i)), nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		if restored == (inst != nil) {
			f.close()
			return nil, fmt.Errorf("node %d: recovered state %v, want %v", i, restored, inst == nil)
		}
		lb, err := listen(timeCommits(n.InternalHandler(), f.rt))
		if err != nil {
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, lb)
		urls[i] = lb.url
	}
	f.hc = &http.Client{Transport: f.rt}
	coord, err := cluster.New(s, a, urls, cluster.Options{Client: f.hc})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	if inst != nil {
		err = coord.Load(inst)
	} else {
		err = coord.Attach(ctx)
	}
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func openFleet(ctx context.Context, dir string, in *inputs, inst *data.Instance) (system, error) {
	f, err := startFleet(ctx, dir, inst)
	if err != nil {
		return nil, err
	}
	cat := server.Catalog{
		Schema:  workload.AccidentSchema(),
		Access:  workload.AccidentConstraints(),
		Queries: make(map[string]*cq.CQ, len(in.params)),
	}
	for i, p := range in.params {
		name := fmt.Sprintf("p%d", i)
		cat.Queries[name] = p.query(name)
		f.bodies = append(f.bodies, []byte(fmt.Sprintf(`{"query":%q}`, name)))
		f.tracedBodies = append(f.tracedBodies, []byte(fmt.Sprintf(`{"query":%q,"profile":true}`, name)))
	}
	srv, err := server.New(f.coord, cat, server.Options{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.applyRoots = make(chan *obs.Span, 1)
	if f.front, err = listen(f.traceApplies(srv)); err != nil {
		f.close()
		return nil, err
	}
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	f.in = in
	f.bounds = make([]int64, len(in.params))
	for i := range f.bounds {
		f.bounds[i] = -1
	}
	return f, nil
}

// reopenFleet restarts the nodes over their data dirs and attaches a
// fresh coordinator; the check queries go to the coordinator directly.
func reopenFleet(ctx context.Context, dir string, in *inputs) (system, error) {
	f, err := startFleet(ctx, dir, nil)
	if err != nil {
		return nil, err
	}
	f.in = in
	return &reopened{f}, nil
}

// reopened serves the post-restart check through the coordinator.
type reopened struct{ *fleet }

func (r *reopened) query(ctx context.Context, p int, _ bool) (answer, error) {
	res, err := r.coord.Query(ctx, r.in.params[p].query(fmt.Sprintf("p%d", p)))
	if err != nil {
		return answer{}, err
	}
	var a answer
	for _, row := range res.Rows {
		a.got.addRow(row)
	}
	return a, nil
}

// traceApplies puts an obs trace on the context of a /v1/apply request
// the client asked to trace, so the coordinator's two-phase apply
// records its spans.
func (f *fleet) traceApplies(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/apply" || !f.traceApply.Load() {
			h.ServeHTTP(w, r)
			return
		}
		tr := obs.NewTrace("apply")
		h.ServeHTTP(w, r.WithContext(obs.NewContext(r.Context(), tr)))
		f.applyRoots <- tr.Finish()
	})
}

func (f *fleet) query(ctx context.Context, p int, traced bool) (answer, error) {
	body := f.bodies[p]
	if traced {
		body = f.tracedBodies[p]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return answer{}, fmt.Errorf("query: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if f.bounds[p] < 0 {
		_, b, err := f.coord.Plan(f.in.params[p].query(fmt.Sprintf("p%d", p)))
		if err != nil {
			return answer{}, err
		}
		f.bounds[p] = b.Fetched
	}
	a := answer{bound: f.bounds[p]}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		a.respBytes += int64(len(line))
		if len(line) > 0 {
			if err := a.addLine(line); err != nil {
				return answer{}, err
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return answer{}, err
		}
	}
	if e := resp.Trailer.Get("X-Beserve-Error"); e != "" {
		return answer{}, fmt.Errorf("query stream cut: %s", e)
	}
	if a.fetched, err = strconv.ParseInt(resp.Trailer.Get("X-Beserve-Fetched"), 10, 64); err != nil {
		return answer{}, fmt.Errorf("fetched trailer: %w", err)
	}
	if a.serverElapsed, err = time.ParseDuration(resp.Trailer.Get("X-Beserve-Elapsed")); err != nil {
		return answer{}, fmt.Errorf("elapsed trailer: %w", err)
	}
	if a.root != nil {
		a.root.Walk(func(s *obs.Span) {
			if s.Name == "fetch" {
				a.keys += s.Keys
			}
		})
	}
	return a, nil
}

var profilePrefix = []byte(`{"profile":`)

// addLine folds one NDJSON line in: a one-column integer row such as
// {"xa":34}, or the profile trailer line of a traced request.
func (a *answer) addLine(line []byte) error {
	line = bytes.TrimSpace(line)
	if bytes.HasPrefix(line, profilePrefix) {
		var pr struct {
			Profile *obs.Span `json:"profile"`
		}
		if err := json.Unmarshal(line, &pr); err != nil {
			return fmt.Errorf("profile line: %w", err)
		}
		a.root = pr.Profile
		return nil
	}
	colon := bytes.IndexByte(line, ':')
	if colon < 0 || !bytes.HasSuffix(line, []byte("}")) {
		return fmt.Errorf("unexpected row %q", line)
	}
	x, err := strconv.ParseInt(string(line[colon+1:len(line)-1]), 10, 64)
	if err != nil {
		return fmt.Errorf("row %q: %w", line, err)
	}
	a.got.addInt(x)
	return nil
}

func (f *fleet) apply(ctx context.Context, d *live.Delta, traced bool) (*obs.Span, error) {
	var body bytes.Buffer
	if err := live.WriteDeltaTSV(&body, d); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.front.url+"/v1/apply", &body)
	if err != nil {
		return nil, err
	}
	f.traceApply.Store(traced)
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var root *obs.Span
	if traced {
		select {
		case root = <-f.applyRoots:
		case <-time.After(10 * time.Second):
			return nil, errors.New("apply: no span tree from the frontend")
		}
	}
	if resp.StatusCode != http.StatusOK {
		return root, fmt.Errorf("apply: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return root, nil
}

func (f *fleet) cacheStats() core.CacheStats { return f.coord.CacheStats() }
func (f *fleet) rpc() rpcCounts              { return f.rt.counts() }

// close stops the frontend, the coordinator's connections and the
// nodes, and closes the nodes' data dirs.
func (f *fleet) close() error {
	if f.front != nil {
		f.front.close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
	for _, lb := range f.srvs {
		lb.close()
	}
	var errs []error
	for _, n := range f.nodes {
		errs = append(errs, n.CloseDurable())
	}
	return errors.Join(errs...)
}
