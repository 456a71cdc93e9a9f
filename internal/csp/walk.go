package csp

import (
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/sample"
	"repro/internal/sim"
)

// walkTask is a random walk in flight: it migrates to the GPU owning the
// walk's current node (the task-push paradigm with fan-out 1 and no
// reshuffle stage, as described in §4.2).
type walkTask struct {
	WalkID int32
	Origin int32
	Cur    graph.NodeID
}

const walkTaskBytes = 12

// walkResult reports one hop of a walk back to its origin GPU.
type walkResult struct {
	WalkID int32
	Step   int32
	Node   graph.NodeID
}

const walkResultBytes = 12

// RandomWalk runs one random walk of the given length from each start node,
// collectively across all ranks. On weighted graphs the next hop is drawn
// proportionally to edge weight (biased walks, as in DeepWalk/node2vec);
// otherwise uniformly. Walks terminate early at nodes with no neighbours (a
// termination condition evaluated in the shuffle stage). paths[i][0] is
// starts[i]; shorter paths indicate early termination. All ranks must call
// RandomWalk together.
func (w *World) RandomWalk(p *sim.Proc, rank int, starts []graph.NodeID, length int, batchSeed uint64) [][]graph.NodeID {
	n := w.Comm.N
	seedsAll := comm.AllGather(w.Comm, p, rank, []uint64{batchSeed}, comm.Raw(8, hw.TrafficOther))
	peerSeed := make([]uint64, n)
	for q := range peerSeed {
		peerSeed[q] = seedsAll[q][0]
	}

	paths := make([][]graph.NodeID, len(starts))
	for i, v := range starts {
		paths[i] = append(paths[i], v)
	}
	// Route initial tasks to the owners of the start nodes.
	active := make([]walkTask, len(starts))
	for i, v := range starts {
		active[i] = walkTask{WalkID: int32(i), Origin: int32(rank), Cur: v}
	}
	cfg := sample.Config{WithReplacement: true, Fanout: []int{1}}
	if w.Patches[rank].Adj.Weights != nil {
		cfg.Biased = true
	}
	stepSeed := make([]uint64, n) // sample.LayerSeed of each origin's seed for the step
	for step := 0; step < length; step++ {
		for q := range stepSeed {
			stepSeed[q] = sample.LayerSeed(peerSeed[q], step)
		}
		// Shuffle stage: send each active task to the owner of its node.
		out := make([][]walkTask, n)
		for _, t := range active {
			o := w.Owner(t.Cur)
			out[o] = append(out[o], t)
		}
		in := comm.AllToAll(w.Comm, p, rank, out, comm.Raw(walkTaskBytes, hw.TrafficSample))
		// Sample stage: one fused fan-out-1 kernel over received tasks.
		var work int64
		for q := 0; q < n; q++ {
			work += int64(len(in[q]))
		}
		if work > 0 {
			w.M.GPUs[rank].RunKernel(p, hw.KernelSample, work)
		}
		ps := w.Patches[rank]
		results := make([][]walkResult, n)
		active = active[:0]
		for q := 0; q < n; q++ {
			for _, t := range in[q] {
				adj := ps.Neighbors(t.Cur)
				// Walks draw with replacement: no selection keys.
				next := sample.DrawAdj(adj, ps.NeighborWeights(t.Cur), t.Cur,
					stepSeed[t.Origin], 1, cfg, nil, nil)
				if len(next) == 0 {
					continue // dead end: the walk terminates here
				}
				results[t.Origin] = append(results[t.Origin],
					walkResult{WalkID: t.WalkID, Step: int32(step), Node: next[0]})
				// The continuing task stays with this GPU's outbox for the
				// next shuffle (it will be routed to next[0]'s owner).
				active = append(active, walkTask{WalkID: t.WalkID, Origin: t.Origin, Cur: next[0]})
			}
		}
		// Hop results stream back to the origins (tiny messages; this
		// replaces the reshuffle stage).
		back := comm.AllToAll(w.Comm, p, rank, results, comm.Raw(walkResultBytes, hw.TrafficSample))
		for q := 0; q < n; q++ {
			for _, r := range back[q] {
				paths[r.WalkID] = append(paths[r.WalkID], r.Node)
			}
		}
	}
	return paths
}
