// Pipeline tuning walkthrough: how much of DSP's speedup comes from the
// producer-consumer pipeline, and how the queue capacity affects it — the
// design discussion of paper Section 5 ("setting the queue capacity limit
// to 2 is sufficient").
//
//	go run ./examples/pipelinetuning
package main

import (
	"fmt"
	"log"

	"repro/dsp"
)

func main() {
	data, err := dsp.StandardData("papers", 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	base := dsp.Options{
		Data:      data,
		Sample:    dsp.SampleConfig{Fanout: []int{15, 10, 5}},
		BatchSize: 64,
		Pipeline:  true,
		UseCCC:    true,
		Seed:      3,
	}

	run := func(opts dsp.Options) (epoch float64, util float64) {
		sys, err := dsp.New(opts)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.RunEpoch(0); err != nil { // warm-up
			log.Fatal(err)
		}
		st, err := sys.RunEpoch(1)
		if err != nil {
			log.Fatal(err)
		}
		var u float64
		for _, x := range st.Utilization {
			u += x
		}
		return float64(st.EpochTime), u / float64(len(st.Utilization))
	}

	seq := base
	seq.Pipeline = false
	seqTime, seqUtil := run(seq)
	fmt.Printf("%-22s  epoch %8.3f ms   util %5.1f%%   speedup %5.2fx\n",
		"DSP-Seq (no pipeline)", 1e3*seqTime, 100*seqUtil, 1.0)

	for _, cap := range []int{1, 2, 4, 8} {
		o := base
		o.QueueCap = cap
		tm, util := run(o)
		fmt.Printf("%-22s  epoch %8.3f ms   util %5.1f%%   speedup %5.2fx\n",
			fmt.Sprintf("pipeline, queue cap %d", cap), 1e3*tm, 100*util, seqTime/tm)
	}
	fmt.Println("\nCapacity 2 captures essentially all of the overlap (the paper's choice);")
	fmt.Println("deeper queues only hold more in-flight batches in GPU memory.")
}
