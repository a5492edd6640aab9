package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// inproc drives an http.Handler in-process: no sockets, so a timed call
// is the handler's own work (decode, resolve, walk, encode) and nothing
// of a transport. One inproc serves one client goroutine.
type inproc struct {
	h    http.Handler
	urls map[string]*url.URL
	rec  recorder
	body bytes.Reader
}

func newInproc(h http.Handler) *inproc {
	return &inproc{h: h, urls: map[string]*url.URL{}, rec: recorder{hdr: http.Header{}}}
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

// call serves one request, requires status want and decodes the JSON
// response into out (nil skips decoding). It returns the time
// ServeHTTP took.
func (c *inproc) call(method, target string, body []byte, want int, out any) (time.Duration, error) {
	u, ok := c.urls[target]
	if !ok {
		var err error
		if u, err = url.ParseRequestURI(target); err != nil {
			return 0, err
		}
		c.urls[target] = u
	}
	c.body.Reset(body)
	req := &http.Request{
		Method:        method,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(&c.body),
		ContentLength: int64(len(body)),
		Host:          "rlbench",
		RequestURI:    target,
	}
	clear(c.rec.hdr)
	c.rec.code = 0
	c.rec.buf.Reset()
	t0 := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d := time.Since(t0)
	if c.rec.code == 0 {
		c.rec.code = http.StatusOK
	}
	if c.rec.code != want {
		return d, fmt.Errorf("%s %s: HTTP %d, want %d: %.200s", method, target, c.rec.code, want, c.rec.buf.Bytes())
	}
	if out != nil {
		if err := json.Unmarshal(c.rec.buf.Bytes(), out); err != nil {
			return d, fmt.Errorf("%s %s: decode response: %w", method, target, err)
		}
	}
	return d, nil
}

// planResponse is the part of a /api/plan response the benchmark checks.
type planResponse struct {
	Steps []struct {
		ID string
	}
	Score                float64
	SatisfiesConstraints bool
	ServedBy             string `json:"served_by"`
	Degraded             bool   `json:"degraded"`
}

func (p *planResponse) ids(dst []string) []string {
	dst = dst[:0]
	for _, s := range p.Steps {
		dst = append(dst, s.ID)
	}
	return dst
}

// check rejects a response that is not a full plan from the engine.
func (p *planResponse) check() error {
	switch {
	case len(p.Steps) == 0:
		return fmt.Errorf("empty plan")
	case p.ServedBy != "sarsa":
		return fmt.Errorf("served by %q, want sarsa", p.ServedBy)
	case p.Degraded:
		return fmt.Errorf("degraded plan")
	}
	return nil
}

// serverMetrics reads the server's /api/metrics counters.
func serverMetrics(c *inproc) (map[string]int64, error) {
	m := map[string]int64{}
	_, err := c.call(http.MethodGet, "/api/metrics", nil, http.StatusOK, &m)
	return m, err
}
