// Serving: run online GNN inference on four simulated GPUs — a Poisson
// request stream with power-law node popularity, dynamically micro-batched
// onto collective sample/gather/forward rounds — and read the tail-latency
// report. Run with:
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"

	"repro/dsp"
)

func main() {
	// The products-sim stand-in (shrunk for a fast run), partitioned for
	// four GPUs exactly as for training: METIS-style patches, renumbered
	// so each GPU owns a consecutive id range.
	data, err := dsp.StandardData("products", 4, 4)
	if err != nil {
		log.Fatal(err)
	}

	// Serve 30 virtual seconds of traffic. Requests arrive open-loop at
	// 2000 req/s; targets follow a power-law over the degree ranking, so
	// the partitioned feature caches see a realistic hot set. Dynamic
	// micro-batching flushes a GPU's queue on a full batch or after a
	// 2 ms max-wait, whichever comes first.
	rep, err := dsp.Serve(dsp.ServeConfig{
		Data:     data,
		Seed:     7,
		Duration: 30,
		Rate:     2000,
		Skew:     0.8,
		Batching: dsp.BatchDynamic,
		UseCCC:   true,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(rep)
	fmt.Printf("\np99/p50 tail ratio %.2fx  mean batch %.1f req/GPU-round\n",
		rep.Latency.P99()/rep.Latency.P50(), rep.MeanBatch)
}
