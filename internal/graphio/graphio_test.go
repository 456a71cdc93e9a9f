package graphio

import (
	"bytes"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/train"
)

func sampleData(t *testing.T, weighted bool) *train.Data {
	t.Helper()
	d := gen.Generate(gen.Config{
		Name: "io", Nodes: 1500, AvgDegree: 9, FeatDim: 6, NumClasses: 5, Seed: 17,
	})
	if weighted {
		d.AttachUniformWeights(3)
	}
	td := train.Prepare(d, 3, 2, true)
	td.ScaleFactor = 123.5
	td.GPUMemBytes = 1 << 26
	td.BenchBatch = 96
	return td
}

func equalData(t *testing.T, a, b *train.Data) {
	t.Helper()
	if a.Name != b.Name || a.FeatDim != b.FeatDim || a.NumClasses != b.NumClasses {
		t.Fatal("metadata differs")
	}
	if a.ScaleFactor != b.ScaleFactor || a.GPUMemBytes != b.GPUMemBytes || a.BenchBatch != b.BenchBatch {
		t.Fatal("scaling metadata differs")
	}
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("graph shape differs")
	}
	for i := range a.G.Indices {
		if a.G.Indices[i] != b.G.Indices[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
	if (a.G.Weights == nil) != (b.G.Weights == nil) {
		t.Fatal("weights presence differs")
	}
	for i := range a.G.Weights {
		if a.G.Weights[i] != b.G.Weights[i] {
			t.Fatalf("weights differ at %d", i)
		}
	}
	fa, fb := a.Features(), b.Features()
	if len(fa) != len(fb) {
		t.Fatalf("%d features, want %d", len(fb), len(fa))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("features differ at %d", i)
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
	if len(a.Shards) != len(b.Shards) {
		t.Fatal("shard count differs")
	}
	for g := range a.Shards {
		for i := range a.Shards[g] {
			if a.Shards[g][i] != b.Shards[g][i] {
				t.Fatalf("shard %d differs at %d", g, i)
			}
		}
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatal("offsets differ")
		}
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("val split differs")
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		td := sampleData(t, weighted)
		var buf bytes.Buffer
		if err := WriteData(&buf, td); err != nil {
			t.Fatal(err)
		}
		got, err := ReadData(&buf)
		if err != nil {
			t.Fatal(err)
		}
		equalData(t, td, got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	td := sampleData(t, false)
	path := filepath.Join(t.TempDir(), "papers.dspd")
	if err := SaveFile(path, td); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalData(t, td, got)
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadData(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedFile(t *testing.T) {
	td := sampleData(t, false)
	var buf bytes.Buffer
	if err := WriteData(&buf, td); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		cut := buf.Bytes()[:buf.Len()/frac]
		if _, err := ReadData(bytes.NewReader(cut)); err == nil {
			t.Fatalf("truncation at 1/%d accepted", frac)
		}
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	td := sampleData(t, false)
	var buf bytes.Buffer
	if err := WriteData(&buf, td); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the first length field (the name length, right after the
	// 4-byte magic + 4-byte version) to an absurd value.
	for i := 8; i < 16; i++ {
		b[i] = 0xff
	}
	if _, err := ReadData(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestLoadedDataTrains(t *testing.T) {
	// A round-tripped dataset must be usable end to end.
	td := sampleData(t, false)
	var buf bytes.Buffer
	if err := WriteData(&buf, td); err != nil {
		t.Fatal(err)
	}
	got, err := ReadData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sched := train.NewSchedule(got, 64)
	if sched.Steps == 0 {
		t.Fatal("no steps")
	}
	seeds := sched.Batch(got, 1, 0, 0, 0)
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
}

// TestWrittenBytesPinned holds the bytes WriteData writes for a small
// prepared, weighted dataset to an FNV-64a hash recorded while Generate still
// drew every feature row eagerly and Prepare copied them into layout order.
// The writer now draws the values on write, through Data.Features; if this
// moves, dspdata files moved.
func TestWrittenBytesPinned(t *testing.T) {
	d := gen.Generate(gen.Config{Name: "pin", Nodes: 500, AvgDegree: 6, FeatDim: 12, NumClasses: 5, Seed: 17})
	d.AttachUniformWeights(3)
	td := train.Prepare(d, 3, 5, true)
	var buf bytes.Buffer
	if err := WriteData(&buf, td); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got, want := h.Sum64(), uint64(0x5ee278044d514e7); got != want || buf.Len() != 54563 {
		t.Fatalf("written file hashes to %#x over %d bytes, want %#x over 54563", got, buf.Len(), want)
	}
}
