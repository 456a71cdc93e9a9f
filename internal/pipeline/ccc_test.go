package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// TestGrantLogBounded: the leader's grant log keeps only the grants some live
// GPU has still to take, so its length is set by how far the GPUs drift apart,
// not by how many collectives a run launches. Under a membership view a dead
// GPU takes no grants and must not hold the log back. Without the trim the
// log keeps every grant of the run: 600 entries.
func TestGrantLogBounded(t *testing.T) {
	const gpus, workers, rounds = 4, 3, 200
	for _, dead := range []int{-1, 3} {
		eng := sim.NewEngine()
		c := NewCoordinator(eng, gpus, true, 1)
		live := gpus
		if dead >= 0 {
			v := fault.NewView(gpus)
			c.SetView(v)
			v.Kill(dead)
			live--
		}
		bars := make([]*sim.Barrier, workers)
		for w := range bars {
			bars[w] = eng.NewBarrier(live)
		}
		longest, done := 0, 0
		for gpu := 0; gpu < gpus; gpu++ {
			if gpu == dead {
				continue
			}
			for w := 0; w < workers; w++ {
				eng.Go(fmt.Sprintf("gpu%d/w%d", gpu, w), func(p *sim.Proc) {
					for round := 0; round < rounds; round++ {
						p.Sleep(sim.Time(float64((gpu*7+w*13+round*3)%5) * 0.001))
						communicate(c, p, gpu, w, func(p *sim.Proc) {
							bars[w].Arrive(p)
							p.Sleep(0.002)
						})
						longest = max(longest, len(c.granted))
					}
					done++
				})
			}
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if done != live*workers {
			t.Fatalf("dead GPU %d: %d of %d workers finished", dead, done, live*workers)
		}
		t.Logf("dead GPU %d: longest grant log %d after %d collectives", dead, longest, workers*rounds)
		if longest > 2*workers {
			t.Errorf("dead GPU %d: the grant log reached %d entries over %d collectives, want <= %d",
				dead, longest, workers*rounds, 2*workers)
		}
	}
}
