package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"swcc/internal/gw"
	"swcc/internal/serve"
)

// The system under test runs in-process on loopback HTTP, booted the
// way cmd/cohereload boots it: real serve.Server and gw.Gateway
// handlers behind net/http servers. The benchmark only wraps those
// handlers to record spans.

var quietLog = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn}))

// backend is one in-process cohered.
type backend struct {
	srv *serve.Server
	hs  *http.Server
	url string
}

func startBackend(cacheCap int, rec *recorder) (*backend, error) {
	srv := serve.NewServer(serve.Config{CacheCap: cacheCap, Logger: quietLog})
	hs, url, err := listen(rec.wrap("serve", srv.Handler()))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &backend{srv: srv, hs: hs, url: url}, nil
}

func (b *backend) stop() {
	b.hs.Close()
	b.srv.Close()
}

// gateway is one in-process coheregw over a set of backends.
type gateway struct {
	hs     *http.Server
	url    string
	cancel context.CancelFunc
	done   chan struct{}
}

// startGateway boots an affinity gateway and returns once its first
// health-probe round has settled.
func startGateway(backends []*backend, rec *recorder) (*gateway, error) {
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.url
	}
	g, err := gw.New(gw.Config{Backends: urls, Policy: gw.PolicyAffinity, Logger: quietLog})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		g.Run(ctx)
	}()
	g.CheckNow(ctx)
	hs, url, err := listen(rec.wrap("gw", g.Handler()))
	if err != nil {
		cancel()
		<-done
		return nil, err
	}
	return &gateway{hs: hs, url: url, cancel: cancel, done: done}, nil
}

func (g *gateway) stop() {
	g.hs.Close()
	g.cancel()
	<-g.done
}

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// newClient is the load generator's one shared keep-alive transport.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// poster is one client goroutine's sender. It reuses its header map,
// parsed URLs and response buffer, so the load generator adds as little
// as it can to the garbage the system under test shares a heap with.
type poster struct {
	client *http.Client
	hdr    http.Header
	urls   map[string]*url.URL
	buf    bytes.Buffer
}

func newPoster(client *http.Client) *poster {
	return &poster{client: client, hdr: http.Header{"Content-Type": {"application/json"}}, urls: map[string]*url.URL{}}
}

// post sends one request with the given X-Request-ID (empty: none) and
// returns the status and body. The body is valid until the next post.
func (p *poster) post(target, body, id string) (int, []byte, error) {
	u := p.urls[target]
	if u == nil {
		var err error
		if u, err = url.Parse(target); err != nil {
			return 0, nil, err
		}
		p.urls[target] = u
	}
	if id != "" {
		p.hdr.Set("X-Request-ID", id)
	} else {
		p.hdr.Del("X-Request-ID")
	}
	req := &http.Request{Method: http.MethodPost, URL: u, Host: u.Host, Header: p.hdr,
		Body: io.NopCloser(strings.NewReader(body)), ContentLength: int64(len(body))}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	p.buf.Reset()
	_, err = p.buf.ReadFrom(resp.Body)
	return resp.StatusCode, p.buf.Bytes(), err
}

// scrape reads a Prometheus text page into series -> value. Histogram
// buckets are skipped; _sum and _count series are kept.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every series whose name (labels included) starts with
// prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// --- spans ---

// span is one recorded interval at a layer boundary. Spans of one
// request share its X-Request-ID; Parent names the layer that caused it.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory while enabled. A nil recorder records
// nothing and wraps nothing, so untraced runs pay no tracing cost.
type recorder struct {
	t0      time.Time
	parents map[string]string // layer -> the layer that calls it
	mu      sync.Mutex
	on      bool
	spans   []span
}

func newRecorder(parents map[string]string) *recorder {
	return &recorder{t0: time.Now(), parents: parents}
}

func (r *recorder) setOn(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

func (r *recorder) add(id, name string, start, end time.Time) {
	if r == nil || id == "" {
		return
	}
	r.mu.Lock()
	if r.on {
		r.spans = append(r.spans, span{ID: id, Name: name, Parent: r.parents[name],
			Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	}
	r.mu.Unlock()
}

// wrap records a span named name around every request h serves that
// carries a benchmark-issued X-Request-ID.
func (r *recorder) wrap(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get("X-Request-ID")
		if !strings.HasPrefix(id, tracePrefix) {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add(id, name, start, time.Now())
	})
}

// tracePrefix marks the benchmark's own request IDs, so health probes
// and scrapes are not mistaken for traced requests.
const tracePrefix = "pb-"

func traceID(worker, n int) string { return tracePrefix + strconv.Itoa(worker) + "-" + strconv.Itoa(n) }

// writeJSONLines writes the spans, one JSON object per line.
func (r *recorder) writeJSONLines(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
