// Node classification on the Papers100M stand-in — the paper's motivating
// workload (citation-graph paper-topic classification, Figure 9) — trained
// to convergence with DSP on eight simulated GPUs, then compared against
// DGL-UVA on the accuracy-versus-time axis.
//
//	go run ./examples/nodeclass
package main

import (
	"fmt"
	"log"

	"repro/dsp"
)

func main() {
	// The papers stand-in at 1/8 scale keeps real fp32 training quick on a
	// laptop host; the simulated GPU memory shrinks with it so the cache
	// behaviour matches the full benchmark.
	data, err := dsp.StandardData("papers", 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("papers stand-in: %d nodes, %d adjacency entries, %d classes\n",
		data.G.NumNodes(), data.G.NumEdges(), data.NumClasses)

	mkOpts := func() dsp.Options {
		return dsp.Options{
			Data:        data,
			Model:       dsp.ModelConfig{Arch: dsp.GraphSAGE, InDim: data.FeatDim, Hidden: 32, Classes: data.NumClasses, Layers: 2},
			Sample:      dsp.SampleConfig{Fanout: []int{10, 5}},
			BatchSize:   256,
			RealCompute: true,
			Pipeline:    true,
			UseCCC:      true,
			LR:          0.01,
			Seed:        11,
		}
	}

	dspSys, err := dsp.New(mkOpts())
	if err != nil {
		log.Fatal(err)
	}
	uvaSys, err := dsp.NewBaseline("dgl-uva", mkOpts())
	if err != nil {
		log.Fatal(err)
	}

	const epochs = 4
	fmt.Println("\nepoch  system    cum-sim-time(ms)  val-acc")
	var tDSP, tUVA float64
	for e := 0; e < epochs; e++ {
		for _, s := range []struct {
			sys  dsp.System
			name string
			cum  *float64
		}{{dspSys, "DSP", &tDSP}, {uvaSys, "DGL-UVA", &tUVA}} {
			st, err := s.sys.RunEpoch(e)
			if err != nil {
				log.Fatal(err)
			}
			*s.cum += float64(st.EpochTime)
			acc := dsp.Evaluate(data, s.sys.Model(), dsp.SampleConfig{Fanout: []int{10, 5}}, 1000, 3)
			fmt.Printf("%5d  %-8s  %16.2f  %7.3f\n", e, s.name, 1e3**s.cum, acc)
		}
	}
	fmt.Println("\nBoth systems reach identical accuracy at equal batch counts (same BSP")
	fmt.Println("updates); DSP gets there in less simulated time — the paper's Figure 9.")
}
