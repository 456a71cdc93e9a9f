package graphio

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/train"
)

// FuzzReadData hardens the binary parser against corrupt inputs: it must
// return an error or a valid dataset, never panic or over-allocate.
func FuzzReadData(f *testing.F) {
	d := gen.Generate(gen.Config{
		Name: "fz", Nodes: 60, AvgDegree: 4, FeatDim: 2, NumClasses: 2, Seed: 9,
	})
	td := train.Prepare(d, 2, 1, false)
	var buf bytes.Buffer
	if err := WriteData(&buf, td); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("DSPD"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadData(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be structurally valid.
		if err := got.G.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		if len(got.Features()) != got.G.NumNodes()*got.FeatDim {
			t.Fatal("accepted inconsistent features")
		}
	})
}
