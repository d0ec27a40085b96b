package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a request that outlives it counts as
// failed.
const requestTimeout = 60 * time.Second

// maxConns is the connection budget of every load loop: one per CPU.
func maxConns() int { return runtime.NumCPU() }

// newHTTPClient returns a client that keeps at most maxConns connections per
// server.  The load loops below never have more than maxConns requests in
// flight, so together they hold the connection budget.
func newHTTPClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns(),
		MaxIdleConnsPerHost: maxConns(),
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: requestTimeout}
}

// response is one completed request.
type response struct {
	status  int
	traceID string
	err     error
}

func (r response) ok() bool { return r.err == nil && r.status == http.StatusOK }

// get sends one request and reads the whole body into buf.
func get(c *http.Client, url string, buf *bytes.Buffer) response {
	resp, err := c.Get(url)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return response{status: resp.StatusCode, traceID: resp.Header.Get("X-Trace-Id"), err: err}
}

// scheduled is one open-loop request: its URL and when it is due, as an
// offset from the start of the run.
type scheduled struct {
	url string
	due time.Duration
}

// sample is one open-loop request as sent.  Times are offsets from the start
// of the run.
type sample struct {
	response
	due, sent, done time.Duration
	body            []byte // kept only when the caller asked for it
}

// latency counts from when the request was due, not from when it was sent:
// a stall that delays sending shows up in every request queued behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how long after its due time the request went out.
func (s sample) late() time.Duration { return s.sent - s.due }

// openLoop sends every request at its due time, with at most maxConns in
// flight, and returns the samples in schedule order.  A request that falls
// due while every connection is busy goes out when one frees up.  keepBody
// selects the requests whose bodies are kept for checking.
func openLoop(c *http.Client, reqs []scheduled, keepBody func(i int) bool) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < maxConns(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if d := r.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				s := sample{due: r.due, sent: time.Since(start)}
				s.response = get(c, r.url, &buf)
				s.done = time.Since(start)
				if keepBody(i) {
					s.body = bytes.Clone(buf.Bytes())
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs clients callers that each send their next request only
// after the previous one completed, until d has passed or, when perClient is
// positive, each has sent perClient requests.  next picks the URL of client
// k's n-th request; record receives every completed request on the client's
// own goroutine, with the body still in buf.
func closedLoop(c *http.Client, clients int, d time.Duration, perClient int,
	next func(k, n int) string, record func(k, n int, url string, r response, lat time.Duration, body []byte)) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; perClient <= 0 || n < perClient; n++ {
				if perClient <= 0 && time.Now().After(deadline) {
					return
				}
				url := next(k, n)
				t := time.Now()
				r := get(c, url, &buf)
				record(k, n, url, r, time.Since(t), buf.Bytes())
			}
		}()
	}
	wg.Wait()
}
