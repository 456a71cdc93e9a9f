package gen

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func smallCfg() Config {
	return Config{
		Name: "test", Nodes: 2000, AvgDegree: 10, FeatDim: 16,
		NumClasses: 8, Seed: 42,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallCfg())
	b := Generate(smallCfg())
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.G.NumEdges(), b.G.NumEdges())
	}
	for i := range a.G.Indices {
		if a.G.Indices[i] != b.G.Indices[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
	fa, fb := drawRows(a), drawRows(b)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("features differ at %d", i)
		}
	}
}

// drawRows draws d's feature rows in node order.
func drawRows(d *Dataset) []float32 {
	rows := make([]float32, d.G.NumNodes()*d.FeatDim)
	d.Rows.Draw(rows, identity(d.G.NumNodes()))
	return rows
}

// identity is the slot map that keeps every row in node order.
func identity(n int) []graph.NodeID {
	slot := make([]graph.NodeID, n)
	for v := range slot {
		slot[v] = graph.NodeID(v)
	}
	return slot
}

func TestGenerateStructure(t *testing.T) {
	d := Generate(smallCfg())
	if err := d.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.G.NumNodes() != 2000 {
		t.Fatalf("n=%d", d.G.NumNodes())
	}
	avg := float64(d.G.NumEdges()) / 2000
	if avg < 8 || avg > 12 {
		t.Fatalf("avg degree %v, want ~10", avg)
	}
	// Draw writes every element of a 2000 x 16 table: none is left NaN.
	feats := make([]float32, 2000*16)
	for i := range feats {
		feats[i] = float32(math.NaN())
	}
	d.Rows.Draw(feats, identity(2000))
	if len(d.Labels) != 2000 || d.FeatDim != 16 || slices.ContainsFunc(feats, func(x float32) bool { return math.IsNaN(float64(x)) }) {
		t.Fatal("label/feature sizes wrong")
	}
	for _, l := range d.Labels {
		if l < 0 || int(l) >= d.NumClasses {
			t.Fatalf("label %d out of range", l)
		}
	}
	// No isolated nodes.
	for v := 0; v < d.G.NumNodes(); v++ {
		if d.G.Degree(int32(v)) == 0 {
			t.Fatalf("node %d isolated", v)
		}
	}
}

func TestSplitsPartitionNodes(t *testing.T) {
	d := Generate(smallCfg())
	seen := make([]int, d.G.NumNodes())
	for _, v := range d.TrainIdx {
		seen[v]++
	}
	for _, v := range d.ValIdx {
		seen[v]++
	}
	for _, v := range d.TestIdx {
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("node %d in %d splits", v, c)
		}
	}
	frac := float64(len(d.TrainIdx)) / float64(d.G.NumNodes())
	if math.Abs(frac-0.2) > 0.01 {
		t.Fatalf("train frac %v, want ~0.2", frac)
	}
}

func TestPowerLawSkew(t *testing.T) {
	// The top 10% of nodes by degree should hold a disproportionate share
	// of edges — this is what makes hot-node caching effective.
	d := Generate(Config{Name: "t", Nodes: 5000, AvgDegree: 20, FeatDim: 4, NumClasses: 4, Seed: 9})
	order := d.G.NodesByDegreeDesc()
	var hot, total int64
	for i, v := range order {
		deg := int64(d.G.Degree(v))
		total += deg
		if i < len(order)/10 {
			hot += deg
		}
	}
	share := float64(hot) / float64(total)
	if share < 0.3 {
		t.Fatalf("top-10%% degree share %.2f, want >0.3 (power law)", share)
	}
}

func TestCommunityStructure(t *testing.T) {
	// Most adjacency entries should stay within the community.
	d := Generate(smallCfg())
	var intra, total int64
	for v := 0; v < d.G.NumNodes(); v++ {
		for _, u := range d.G.Neighbors(int32(v)) {
			total++
			if d.Labels[u] == d.Labels[v] {
				intra++
			}
		}
	}
	frac := float64(intra) / float64(total)
	if frac < 0.6 {
		t.Fatalf("intra-community fraction %.2f, want >0.6", frac)
	}
}

func TestFeaturesCarryClassSignal(t *testing.T) {
	// A nearest-centroid classifier on raw features should beat chance by a
	// wide margin (otherwise Figure 9's learning curves would be noise).
	d := Generate(smallCfg())
	rows := drawRows(d)
	dim := d.FeatDim
	centroids := make([][]float64, d.NumClasses)
	counts := make([]int, d.NumClasses)
	for c := range centroids {
		centroids[c] = make([]float64, dim)
	}
	for v := 0; v < d.G.NumNodes(); v++ {
		c := d.Labels[v]
		counts[c]++
		f := rows[v*dim : (v+1)*dim]
		for j := 0; j < dim; j++ {
			centroids[c][j] += float64(f[j])
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for v := 0; v < d.G.NumNodes(); v++ {
		f := rows[v*dim : (v+1)*dim]
		best, bestDist := -1, math.Inf(1)
		for c := range centroids {
			var dist float64
			for j := 0; j < dim; j++ {
				diff := float64(f[j]) - centroids[c][j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if int32(best) == d.Labels[v] {
			correct++
		}
	}
	acc := float64(correct) / float64(d.G.NumNodes())
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy %.2f, want >0.5 (chance = %.2f)",
			acc, 1/float64(d.NumClasses))
	}
}

func TestAttachUniformWeights(t *testing.T) {
	d := Generate(smallCfg())
	d.AttachUniformWeights(5)
	if err := d.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.G.Weights) != len(d.G.Indices) {
		t.Fatal("weight length mismatch")
	}
	// Weights are per-node: all edges pointing at the same neighbour carry
	// the same weight.
	seen := map[int32]float32{}
	for i, u := range d.G.Indices {
		if w, ok := seen[u]; ok && w != d.G.Weights[i] {
			t.Fatalf("node %d has inconsistent weights", u)
		}
		seen[u] = d.G.Weights[i]
	}
}

func TestStandardDatasets(t *testing.T) {
	for _, name := range StandardNames {
		s := StandardDataset(name, 10)
		if s.ScaleFactor <= 1 {
			t.Errorf("%s: scale factor %v", name, s.ScaleFactor)
		}
		if s.GPUMemBytes() <= 0 {
			t.Errorf("%s: GPU mem %d", name, s.GPUMemBytes())
		}
		d := Generate(s.Config)
		if err := d.G.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		avg := float64(d.G.NumEdges()) / float64(d.G.NumNodes())
		if math.Abs(avg-s.PaperAvgDeg)/s.PaperAvgDeg > 0.15 {
			t.Errorf("%s: avg degree %.1f, want ~%.1f", name, avg, s.PaperAvgDeg)
		}
	}
}

func TestStandardUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	StandardDataset("nope", 1)
}

func TestCachePressureRegimes(t *testing.T) {
	// Products features fit in 8 scaled GPUs; Papers and Friendster do not
	// fit in ONE scaled GPU (they need the aggregate + host), mirroring the
	// paper's setting where DGL-UVA could not cache them on a single V100.
	for _, name := range StandardNames {
		s := StandardDataset(name, 1)
		featBytes := int64(s.Config.Nodes) * int64(s.Config.FeatDim) * 4
		agg := 8 * s.GPUMemBytes()
		if featBytes >= agg {
			t.Errorf("%s: features (%d) exceed 8-GPU aggregate (%d); cache regimes wrong", name, featBytes, agg)
		}
		if name != "products" {
			if featBytes < s.GPUMemBytes() {
				t.Errorf("%s: features fit one GPU (%d < %d), paper regime requires otherwise",
					name, featBytes, s.GPUMemBytes())
			}
		}
	}
}

func TestWeightedSamplerMatchesWeights(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	s := newWeightedSampler(w)
	r := rng.New(13)
	counts := make([]int, 4)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample(r)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * draws
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("weight %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestGenerateInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid config")
		}
	}()
	Generate(Config{Nodes: 0, AvgDegree: 5, FeatDim: 4, NumClasses: 2})
}
