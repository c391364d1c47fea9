package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"irfusion/internal/cache"
	"irfusion/internal/core"
	"irfusion/internal/pgen"
	"irfusion/internal/serve"
	"irfusion/internal/spice"
)

// sample is one request of a run: what was sent, when, and what came
// back. The oracle check fills correct and mae after the run.
type sample struct {
	client     int
	deck       int
	start, end time.Time
	status     int    // HTTP status (200 for a CLI-path answer)
	err        string // transport, decode, status or job error
	respBytes  int
	view       *serve.JobView // serve path only
	served     []float64      // the returned drop map
	correct    bool
	mae        float64 // volts, against the oracle
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.start) }

// service is the program under test as a caller sees it: one analysis
// per call, blocking until the answer is back.
type service interface {
	call(client, deck int) sample
	cacheStats() cache.Stats // the artifact cache's counters; zero without one
	close()
}

// serveConfig is the configuration `irfusion serve` runs with when
// started without flags: 2 workers, queue 16, 8 MiB bodies, die size
// up to 256, 2-minute default timeout, artifact cache on at its
// default size, solver checkpoints every 32 iterations, no journal.
// Manifests are attached to every result by default.
func serveConfig(an *core.Analyzer) serve.Config {
	return serve.Config{
		Workers:        2,
		QueueDepth:     16,
		MaxBodyBytes:   8 << 20,
		MaxDesignSize:  256,
		DefaultTimeout: 2 * time.Minute,
		Analyzer:       an,
	}
}

// httpService drives an in-process serve.Server through its HTTP
// handler behind httptest, exactly as a remote client would.
type httpService struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	bodies func(deck int) []byte
}

func newHTTPService(cfg serve.Config, bodies func(deck int) []byte) *httpService {
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &httpService{srv: srv, ts: ts, client: &http.Client{Transport: tr}, bodies: bodies}
}

func (h *httpService) call(client, deck int) sample {
	s := sample{client: client, deck: deck}
	body := h.bodies(deck)
	s.start = time.Now()
	resp, err := h.client.Post(h.ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		s.end = time.Now()
		s.err = err.Error()
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	s.respBytes = len(raw)
	if err != nil {
		s.end = time.Now()
		s.err = err.Error()
		return s
	}
	var v serve.JobView
	err = json.Unmarshal(raw, &v)
	s.end = time.Now()
	switch {
	case err != nil:
		s.err = "decode: " + err.Error()
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Sprintf("status %d: %s", resp.StatusCode, v.Error)
	case v.Status != serve.StatusDone || v.Result == nil:
		s.err = fmt.Sprintf("job %s: %s", v.Status, v.Error)
	default:
		s.served = v.Result.Map
		v.Result.Map = nil // the sample keeps it in served
	}
	s.view = &v
	return s
}

func (h *httpService) cacheStats() cache.Stats { return h.srv.CacheStats() }

func (h *httpService) close() {
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = h.srv.Close(ctx) // a drain timeout leaves nothing to report
	h.client.CloseIdleConnections()
}

// cliService is the `irfusion analyze -spice deck -size N` path:
// spice.Parse, then core.NumericalAnalyzer.AnalyzeCtx with the CLI's
// default options and no artifact cache.
type cliService struct {
	size  int
	texts func(deck int) string
}

func (c *cliService) call(client, deck int) sample {
	s := sample{client: client, deck: deck}
	text := c.texts(deck)
	s.start = time.Now()
	m, err := c.analyze(text)
	s.end = time.Now()
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.status = http.StatusOK
	s.served = m
	return s
}

func (c *cliService) analyze(text string) ([]float64, error) {
	nl, err := spice.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	d := &pgen.Design{Name: "analyze", W: c.size, H: c.size, VDD: serve.PadVoltage(nl), Netlist: nl}
	na := &core.NumericalAnalyzer{Resolution: c.size, Precond: "amg", Precision: "full", Format: "auto"}
	m, _, _, err := na.AnalyzeCtx(context.Background(), d)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

func (c *cliService) cacheStats() cache.Stats { return cache.Stats{} }

func (c *cliService) close() {}
