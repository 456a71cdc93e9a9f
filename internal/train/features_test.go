package train

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

// refApplyToFeatures is the renumbering's old eager copy of a node-order
// feature table into layout order, kept as the oracle for Data.Features.
func refApplyToFeatures(r *partition.Renumbering, features []float32, dim int) []float32 {
	n := len(r.NewID)
	out := make([]float32, len(features))
	for nid := 0; nid < n; nid++ {
		old := int(r.OldID[nid])
		copy(out[nid*dim:(nid+1)*dim], features[old*dim:(old+1)*dim])
	}
	return out
}

// TestFeaturesMatchEagerLayout: the values Features draws straight into
// layout slots are, bit for bit, the node-order table copied into layout
// order the way Prepare used to, under both partitioners.
func TestFeaturesMatchEagerLayout(t *testing.T) {
	d := testDataset()
	n, dim := d.G.NumNodes(), d.FeatDim
	nodeOrder := make([]graph.NodeID, n)
	for v := range nodeOrder {
		nodeOrder[v] = graph.NodeID(v)
	}
	eager := make([]float32, n*dim)
	d.Rows.Draw(eager, nodeOrder)
	for _, metis := range []bool{true, false} {
		td := Prepare(d, 4, 1, metis)
		res := partition.Hash(d.G, 4)
		if metis {
			res = partition.Metis(d.G, 4, 1)
		}
		want := refApplyToFeatures(partition.BuildRenumbering(res), eager, dim)
		got := td.Features()
		if len(got) != len(want) || td.FeatureBytes() != int64(len(want))*4 {
			t.Fatalf("metis=%v: %d values (%d bytes), want %d", metis, len(got), td.FeatureBytes(), len(want))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("metis=%v: value %d (node %d) is %v, want %v", metis, i, i/dim, got[i], want[i])
			}
		}
	}
}

// TestFeaturesDrawnOnce: Prepare draws nothing, and eight goroutines making
// the first call at once all get the one table, drawn once. Run it under
// -race: the gather units of a Parallel > 1 run make that first call from
// worker threads.
func TestFeaturesDrawnOnce(t *testing.T) {
	td := Prepare(testDataset(), 2, 1, true)
	if td.feats != nil {
		t.Fatal("Prepare drew the feature values")
	}
	var draws atomic.Int32
	draw := td.drawFeats
	td.drawFeats = func(dst []float32) {
		draws.Add(1)
		draw(dst)
	}
	const callers = 8
	got := make([][]float32, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = td.Features()
		}()
	}
	start.Done()
	done.Wait()
	if again := td.Features(); &again[0] != &got[0][0] {
		t.Fatal("a later call returned another table")
	}
	if n := draws.Load(); n != 1 {
		t.Fatalf("%d callers drew the table %d times, want once", callers, n)
	}
	for i, f := range got {
		if len(f) != td.G.NumNodes()*td.FeatDim || &f[0] != &got[0][0] {
			t.Fatalf("caller %d got another table", i)
		}
	}
}
