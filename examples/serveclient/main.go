// Serveclient: start the experiment HTTP API in-process, query two endpoints
// and decode the structured JSON — the programmatic counterpart of
//
//	qsd serve &
//	curl 'localhost:8080/v1/experiments/table2?format=json'
//	curl 'localhost:8080/v1/experiments/figure15?arch=gcqla&scale=8'
//
// The server wraps one shared engine, so repeating a request is answered
// from the fingerprint-keyed result cache without recomputation.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/server"
)

// document mirrors the report JSON schema far enough for this client: every
// experiment response is a list of sections holding typed blocks.
type document struct {
	Sections []struct {
		ID     string `json:"id"`
		Blocks []struct {
			Type  string `json:"type"`
			Table *struct {
				Title   string   `json:"title"`
				Headers []string `json:"headers"`
				Rows    [][]any  `json:"rows"`
			} `json:"table"`
		} `json:"blocks"`
	} `json:"sections"`
}

func fetch(base, path string) (document, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return document{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return document{}, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	var doc document
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return document{}, err
	}
	return doc, nil
}

func main() {
	// Start the API on an ephemeral port, exactly as `qsd serve` would but
	// in-process.
	exp := core.NewExperiments()
	exp.Engine = engine.New(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, server.New(exp, core.DefaultRunParams()))
	base := "http://" + ln.Addr().String()

	// Table 2: the critical-path latency split that motivates the paper.
	doc, err := fetch(base, "/v1/experiments/table2?format=json")
	if err != nil {
		log.Fatal(err)
	}
	table := doc.Sections[0].Blocks[0].Table
	fmt.Println(table.Title)
	for _, row := range table.Rows {
		// row[0] is the circuit name, row[7] the speed-of-data time in µs —
		// full precision, unlike the rounded text rendering.
		fmt.Printf("  %-14v speed-of-data %.0f us\n", row[0], row[7])
	}

	// Figure 15 restricted to GCQLA: ?arch= avoids simulating the other four
	// organisations, and ?scale= bounds the resource sweep.
	doc, err = fetch(base, "/v1/experiments/figure15?arch=gcqla&scale=8&format=json")
	if err != nil {
		log.Fatal(err)
	}
	table = doc.Sections[0].Blocks[0].Table
	fmt.Println(table.Title)
	for _, row := range table.Rows {
		fmt.Printf("  %v scale %v: %.1f macroblocks -> %.2f ms\n", row[0], row[1], row[2], row[3])
	}

	// Re-issuing an identical request is served from the engine's
	// fingerprint cache without recomputation.
	if _, err := fetch(base, "/v1/experiments/table2?format=json"); err != nil {
		log.Fatal(err)
	}
	tiers := exp.Engine.Tiers()
	fmt.Printf("engine: %d cache hits, %d computed jobs after repeating the first request\n", tiers.MemoryHits, tiers.MemoryMisses)
}
