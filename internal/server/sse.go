package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// sseEvent is one named server-sent event: "job" for engine job completions,
// "partial" for refining partial estimates of sequential-sampling runs.
type sseEvent struct {
	name string
	data any
}

// progressEvent is one engine job completion, streamed to /v1/progress
// subscribers as a server-sent event of type "job".
type progressEvent struct {
	// Done and Total are the finished and total job counts of the batch the
	// job belonged to.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Key is the completed job's fingerprint.
	Key string `json:"key"`
	// TraceID names the request trace the job ran under, when the batch was
	// traced, so an SSE consumer can correlate progress with /v1/trace/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// partialEvent is one refining partial estimate of a long-running
// experiment, streamed as a server-sent event of type "partial".
type partialEvent struct {
	// Key is the publishing experiment job's fingerprint.
	Key string `json:"key"`
	// Seq orders the partials of one run; later estimates supersede earlier
	// ones.
	Seq int `json:"seq"`
	// Value is the experiment-specific partial payload (e.g.
	// core.PartialEstimate).
	Value any `json:"value"`
}

// progressHub fans engine progress and partial-result callbacks out to SSE
// subscribers.  The engine serialises each callback kind, but subscribers
// come and go from request goroutines, so the subscriber set is
// mutex-guarded.  Slow subscribers drop events instead of stalling the
// engine.
type progressHub struct {
	mu     sync.Mutex
	subs   map[chan sseEvent]struct{}
	closed bool
	// done is closed by close(); every streaming handler selects on it so a
	// draining server ends its SSE responses cleanly (stream close, not a
	// connection reset) and http.Server.Shutdown is not held open forever by
	// idle subscribers.
	done chan struct{}
}

func newProgressHub() *progressHub {
	return &progressHub{subs: make(map[chan sseEvent]struct{}), done: make(chan struct{})}
}

// close ends every subscriber stream and refuses new ones; it is idempotent.
func (h *progressHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
}

// subscribers reports the live subscriber count for /v1/healthz.
func (h *progressHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

func (h *progressHub) subscribe() chan sseEvent {
	// Partial estimates of sequential-sampling runs arrive in bursts (every
	// protocol of a fig4 batch publishes its doubling schedule within
	// milliseconds), so the buffer is sized to absorb a whole CI-mode run
	// before the writer catches up; overflow still drops rather than
	// stalling the engine.
	ch := make(chan sseEvent, 1024)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *progressHub) unsubscribe(ch chan sseEvent) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// send fans one event out to every subscriber.  It must never block: it
// runs inside the engine's progress (or partial) lock.
func (h *progressHub) send(ev sseEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // subscriber too slow; drop
		}
	}
}

// broadcast is installed as the engine's Progress callback.
func (h *progressHub) broadcast(done, total int, key, traceID string) {
	h.send(sseEvent{name: "job", data: progressEvent{Done: done, Total: total, Key: key, TraceID: traceID}})
}

// broadcastPartial is installed as the engine's Partial callback.
func (h *progressHub) broadcastPartial(key string, seq int, value any) {
	h.send(sseEvent{name: "partial", data: partialEvent{Key: key, Seq: seq, Value: value}})
}

// handleSSE streams engine job completions (event type "job") and refining
// partial estimates (event type "partial") until the client disconnects.
func (h *progressHub) handleSSE(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h.mu.Lock()
	draining := h.closed
	h.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	// Subscribe before the headers go out: a client that has seen the
	// response must not miss the events that follow it.
	ch := h.subscribe()
	defer h.unsubscribe(ch)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": connected\n\n")
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-h.done:
			// Server draining: end the stream cleanly so the client sees EOF
			// after a complete event, not a reset mid-frame.
			fmt.Fprint(w, ": server shutting down\n\n")
			flusher.Flush()
			return
		case ev := <-ch:
			data, err := json.Marshal(ev.data)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, data)
			flusher.Flush()
		}
	}
}
