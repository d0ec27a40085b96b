package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/server"
)

// TestServeUntilShutdownGraceful covers the serve drain path without
// signals: an SSE client is connected when shutdown triggers and must see a
// clean stream close (EOF after a complete frame), and the server must stop
// within the drain deadline.
func TestServeUntilShutdownGraceful(t *testing.T) {
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	h := server.New(exp, core.DefaultRunParams())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilShutdown(ctx, ln, h, 5*time.Second) }()

	// Wait for the listener to answer, then hold an SSE stream open.
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(base + "/v1/progress")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer resp.Body.Close()

	cancel() // the signal
	body, readErr := io.ReadAll(resp.Body)
	if readErr != nil {
		t.Errorf("SSE stream ended with %v, want clean EOF", readErr)
	}
	if !strings.Contains(string(body), "server shutting down") {
		t.Errorf("SSE stream missing shutdown frame: %q", body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilShutdown did not return")
	}
}
