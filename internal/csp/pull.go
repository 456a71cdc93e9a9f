package csp

import (
	"slices"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sample"
	"repro/internal/sim"
)

// PullDataSampleBatch samples a mini-batch using the data-pull paradigm the
// paper compares against in Figure 11: instead of pushing sampling tasks to
// the owning GPU, the requester pulls each remote frontier node's ENTIRE
// adjacency list (and weight list for biased sampling) over NVLink and
// samples locally. Results are bit-identical to SampleBatch — only the
// communication volume and timing differ, because adjacency lists are much
// longer than the sampled neighbour sets.
func (w *World) PullDataSampleBatch(p *sim.Proc, rank int, seeds []graph.NodeID, cfg sample.Config, batchSeed uint64) *sample.MiniBatch {
	// Batch seeds still need no exchange: sampling happens on the
	// requester, but keep the collective structure aligned across ranks.
	s := w.scratchOf(rank)
	mb := s.batch(cfg.Layers())
	mb.Seeds, mb.Seed = seeds, batchSeed
	dst := seeds
	for l, block := range mb.Blocks {
		adjs, wts := w.pullAdjacency(p, rank, dst, cfg.Biased)
		var counts []int32
		if cfg.LayerWise {
			info := make([]massInfo, len(dst))
			for i := range dst {
				var mass float64
				if cfg.Biased {
					for _, x := range wts[i] {
						mass += float64(x)
					}
				} else {
					mass = float64(len(adjs[i]))
				}
				info[i] = massInfo{Mass: mass, Deg: int32(len(adjs[i]))}
			}
			counts = layerCounts(dst, info, cfg, l, batchSeed)
		} else {
			counts = make([]int32, len(dst))
			for i := range counts {
				counts[i] = int32(cfg.Fanout[l])
			}
		}
		// Local sampling kernel over the pulled lists.
		var work int64
		for _, c := range counts {
			work += int64(c)
		}
		if work > 0 {
			w.M.GPUs[rank].RunKernel(p, hw.KernelSample, work)
		}
		outCounts := make([]int32, len(dst))
		samples := s.samples[:0]
		ls := sample.LayerSeed(batchSeed, l)
		for i, v := range dst {
			if counts[i] == 0 {
				continue
			}
			before := len(samples)
			samples = sample.DrawAdj(adjs[i], wts[i], v, ls, int(counts[i]), cfg, samples, &s.keys)
			outCounts[i] = int32(len(samples) - before)
		}
		s.samples = samples
		if len(samples) > 0 {
			w.M.GPUs[rank].RunKernel(p, hw.KernelGather, int64(len(samples))*16)
		}
		w.deduper().Rebuild(block, dst, outCounts, samples)
		dst = block.InputNodes
	}
	slices.Reverse(mb.Blocks)
	return mb
}

// pullAdjacency fetches the adjacency (and weight) lists of dst nodes from
// their owners, paying full list transfer for remote nodes.
func (w *World) pullAdjacency(p *sim.Proc, rank int, dst []graph.NodeID, biased bool) ([][]graph.NodeID, [][]float32) {
	n := w.Comm.N
	outIDs := make([][]graph.NodeID, n)
	where := make([][2]int32, len(dst))
	for i, v := range dst {
		o := w.Owner(v)
		where[i] = [2]int32{int32(o), int32(len(outIDs[o]))}
		outIDs[o] = append(outIDs[o], v)
	}
	inIDs := comm.AllToAll(w.Comm, p, rank, outIDs, comm.Raw(idBytes, hw.TrafficSample))
	// Owner side: serve adjacency lists (a gather over the patch CSR).
	ps := w.Patches[rank]
	replyCounts := make([][]int32, n)
	replyAdj := make([][]graph.NodeID, n)
	replyW := make([][]float32, n)
	var served int64
	for q := 0; q < n; q++ {
		replyCounts[q] = make([]int32, len(inIDs[q]))
		for i, v := range inIDs[q] {
			adj := ps.Neighbors(v)
			replyCounts[q][i] = int32(len(adj))
			replyAdj[q] = append(replyAdj[q], adj...)
			if biased {
				replyW[q] = append(replyW[q], ps.NeighborWeights(v)...)
			}
			served += int64(len(adj))
		}
	}
	if served > 0 {
		w.M.GPUs[rank].RunKernel(p, hw.KernelGather, served*4)
	}
	backCounts := comm.AllToAll(w.Comm, p, rank, replyCounts, comm.Raw(4, hw.TrafficSample))
	backAdj := comm.AllToAll(w.Comm, p, rank, replyAdj, comm.Raw(idBytes, hw.TrafficSample))
	var backW [][]float32
	if biased {
		backW = comm.AllToAll(w.Comm, p, rank, replyW, comm.Raw(4, hw.TrafficSample))
	}
	// Reassemble per-dst views.
	starts := make([][]int32, n)
	for o := 0; o < n; o++ {
		starts[o] = make([]int32, len(backCounts[o])+1)
		for i, c := range backCounts[o] {
			starts[o][i+1] = starts[o][i] + c
		}
	}
	adjs := make([][]graph.NodeID, len(dst))
	wts := make([][]float32, len(dst))
	for i := range dst {
		o, j := where[i][0], where[i][1]
		adjs[i] = backAdj[o][starts[o][j]:starts[o][j+1]]
		if biased {
			wts[i] = backW[o][starts[o][j]:starts[o][j+1]]
		}
	}
	return adjs, wts
}
