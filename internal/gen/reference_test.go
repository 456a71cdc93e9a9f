package gen

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refGenerate is Generate as it was when it drew every feature row eagerly,
// kept as the oracle for FeatureRows.Draw: the same dataset, and its
// features in node order.
func refGenerate(cfg Config) (*Dataset, []float32) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	n := cfg.Nodes

	labels := make([]int32, n)
	perClass := n / cfg.NumClasses
	for v := 0; v < n; v++ {
		c := v / perClass
		if c >= cfg.NumClasses {
			c = cfg.NumClasses - 1
		}
		labels[v] = int32(c)
	}
	members := make([][]graph.NodeID, cfg.NumClasses)
	for v := 0; v < n; v++ {
		members[labels[v]] = append(members[labels[v]], graph.NodeID(v))
	}

	alpha := 1.0 / (cfg.PowerLaw - 1.0)
	prop := make([]float64, n)
	var propSum float64
	for i, v := range r.Perm(n) {
		w := math.Pow(float64(i+1), -alpha)
		prop[v] = w
		propSum += w
	}

	global := newWeightedSampler(prop)
	community := make([]*weightedSampler, cfg.NumClasses)
	for c := 0; c < cfg.NumClasses; c++ {
		w := make([]float64, len(members[c]))
		for i, v := range members[c] {
			w[i] = prop[v]
		}
		community[c] = newWeightedSampler(w)
	}

	targetEdges := int64(float64(n) * cfg.AvgDegree)
	src := make([]graph.NodeID, 0, targetEdges)
	dst := make([]graph.NodeID, 0, targetEdges)
	for v := 0; v < n; v++ {
		share := prop[v] / propSum
		deg := int(share * float64(targetEdges))
		frac := float64(share*float64(targetEdges)) - float64(deg)
		if r.Float64() < frac {
			deg++
		}
		if deg == 0 {
			deg = 1
		}
		c := labels[v]
		for k := 0; k < deg; k++ {
			var u graph.NodeID
			if r.Float64() < cfg.IntraProb {
				u = members[c][community[c].Sample(r)]
			} else {
				u = graph.NodeID(global.Sample(r))
			}
			if u == graph.NodeID(v) {
				u = members[c][community[c].Sample(r)]
				if u == graph.NodeID(v) {
					continue
				}
			}
			src = append(src, u)
			dst = append(dst, graph.NodeID(v))
		}
	}
	g := graph.FromEdges(n, src, dst)

	centroids := make([][]float32, cfg.NumClasses)
	cr := r.Split()
	for c := range centroids {
		centroids[c] = make([]float32, cfg.FeatDim)
		for j := range centroids[c] {
			centroids[c][j] = float32(cr.NormFloat64())
		}
	}
	features := make([]float32, n*cfg.FeatDim)
	fr := r.Split()
	for v := 0; v < n; v++ {
		cen := centroids[labels[v]]
		row := features[v*cfg.FeatDim : (v+1)*cfg.FeatDim]
		for j := range row {
			row[j] = float32(float32(cfg.FeatureSignal)*cen[j]) + float32(fr.NormFloat64())
		}
	}

	order := r.Perm(n)
	nTrain := int(cfg.TrainFrac * float64(n))
	nVal := int(cfg.ValFrac * float64(n))
	d := &Dataset{
		Name: cfg.Name, G: g, FeatDim: cfg.FeatDim,
		Labels: labels, NumClasses: cfg.NumClasses,
	}
	for i, v := range order {
		switch {
		case i < nTrain:
			d.TrainIdx = append(d.TrainIdx, graph.NodeID(v))
		case i < nTrain+nVal:
			d.ValIdx = append(d.ValIdx, graph.NodeID(v))
		default:
			d.TestIdx = append(d.TestIdx, graph.NodeID(v))
		}
	}
	return d, features
}

// TestDrawMatchesEagerReference: Generate leaves every draw the eager
// generator made where it was — graph, labels and splits are equal — and
// Draw writes its feature values bit for bit, into node order or into any
// slot permutation, as often as it is called.
func TestDrawMatchesEagerReference(t *testing.T) {
	cfgs := []Config{
		smallCfg(),
		{Name: "signal", Nodes: 700, AvgDegree: 6, FeatDim: 5, NumClasses: 3, FeatureSignal: 2.5, Seed: 8},
		{Name: "one-class", Nodes: 50, AvgDegree: 3, FeatDim: 1, NumClasses: 1, Seed: 1},
		StandardDataset("products", 16).Config,
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name, func(t *testing.T) {
			d := Generate(cfg)
			ref, want := refGenerate(cfg)
			if !reflect.DeepEqual(d.G, ref.G) || !reflect.DeepEqual(d.Labels, ref.Labels) ||
				!reflect.DeepEqual(d.TrainIdx, ref.TrainIdx) || !reflect.DeepEqual(d.ValIdx, ref.ValIdx) ||
				!reflect.DeepEqual(d.TestIdx, ref.TestIdx) {
				t.Fatal("graph, labels or splits differ from the eager generator")
			}
			n, dim := cfg.Nodes, cfg.FeatDim
			slot := make([]graph.NodeID, n)
			for i, v := range rng.New(3).Perm(n) {
				slot[i] = graph.NodeID(v)
			}
			for pass := 0; pass < 2; pass++ {
				got := make([]float32, n*dim)
				d.Rows.Draw(got, identity(n))
				if err := sameBits(got, want); err != nil {
					t.Fatalf("pass %d, node order: %v", pass, err)
				}
				d.Rows.Draw(got, slot)
				for v := 0; v < n; v++ {
					at := int(slot[v])
					if err := sameBits(got[at*dim:(at+1)*dim], want[v*dim:(v+1)*dim]); err != nil {
						t.Fatalf("pass %d, node %d in slot %d: %v", pass, v, at, err)
					}
				}
			}
		})
	}
}

func sameBits(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
