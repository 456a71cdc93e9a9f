// Package graphio persists datasets and prepared (partitioned, renumbered)
// training data in a compact binary format, mirroring the paper artifact's
// preprocessing step: "partition.sh ... The partitioned graph is stored on
// disk, which is used as the default data directory in subsequent
// experiments". Generating and partitioning large stand-ins is the most
// expensive host-side step, so benchmarks and CLIs can do it once.
//
// Format (little-endian, versioned):
//
//	magic "DSPG" | version u32 | name | graph CSR | feat dim | features |
//	labels | classes | splits / shards | offsets | scaling metadata
//
// Strings and slices are length-prefixed (u64).
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/graph"
	"repro/internal/train"
)

const (
	magic   = "DSPD"
	version = 1
)

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, w.err = w.w.Write(b[:])
}

func (w *writer) u64(v uint64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, w.err = w.w.Write(b[:])
}

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) i64s(s []int64) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u64(uint64(v))
	}
}

func (w *writer) i32s(s []int32) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u32(uint32(v))
	}
}

func (w *writer) f32s(s []float32) {
	w.u64(uint64(len(s)))
	for _, v := range s {
		w.u32(math.Float32bits(v))
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var b [4]byte
	_, r.err = io.ReadFull(r.r, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var b [8]byte
	_, r.err = io.ReadFull(r.r, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// maxLen bounds any single slice in a file (2^34 elements) to fail fast on
// corrupt headers instead of attempting absurd loops.
const maxLen = 1 << 34

// allocChunk bounds the UP-FRONT allocation for a claimed length: slices
// grow by appending as bytes actually arrive, so a corrupt header cannot
// trigger a giant allocation — the read fails at end-of-input first.
const allocChunk = 1 << 16

func (r *reader) length() int {
	n := r.u64()
	if r.err == nil && n > maxLen {
		r.err = fmt.Errorf("graphio: implausible length %d (corrupt file?)", n)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func initialCap(n int) int {
	if n > allocChunk {
		return allocChunk
	}
	return n
}

func (r *reader) str() string {
	n := r.length()
	if r.err != nil {
		return ""
	}
	b := make([]byte, 0, initialCap(n))
	var chunk [4096]byte
	for len(b) < n && r.err == nil {
		want := n - len(b)
		if want > len(chunk) {
			want = len(chunk)
		}
		var read int
		read, r.err = io.ReadFull(r.r, chunk[:want])
		b = append(b, chunk[:read]...)
	}
	return string(b)
}

func (r *reader) i64s() []int64 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int64, 0, initialCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int64(r.u64()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) i32s() []int32 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]int32, 0, initialCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int32(r.u32()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) f32s() []float32 {
	n := r.length()
	if r.err != nil {
		return nil
	}
	out := make([]float32, 0, initialCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, math.Float32frombits(r.u32()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// WriteData serialises prepared training data (layout order, shards,
// offsets, scaling metadata) to w.
func WriteData(dst io.Writer, d *train.Data) error {
	w := &writer{w: bufio.NewWriterSize(dst, 1<<20)}
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	w.u32(version)
	w.str(d.Name)
	// Graph.
	w.i64s(d.G.Indptr)
	w.i32s(d.G.Indices)
	if d.G.Weights != nil {
		w.u32(1)
		w.f32s(d.G.Weights)
	} else {
		w.u32(0)
	}
	// Features, labels, meta.
	w.u32(uint32(d.FeatDim))
	w.f32s(d.Features())
	w.i32s(d.Labels)
	w.u32(uint32(d.NumClasses))
	// Layout.
	w.i64s(d.Offsets)
	w.u64(uint64(len(d.Shards)))
	for _, s := range d.Shards {
		w.i32s(s)
	}
	w.i32s(d.Val)
	w.u64(math.Float64bits(d.ScaleFactor))
	w.u64(uint64(d.GPUMemBytes))
	w.u32(uint32(d.BenchBatch))
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// ReadData deserialises prepared training data and validates the graph.
func ReadData(src io.Reader) (*train.Data, error) {
	r := &reader{r: bufio.NewReaderSize(src, 1<<20)}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.r, head); err != nil {
		return nil, err
	}
	if string(head) != magic {
		return nil, fmt.Errorf("graphio: bad magic %q", head)
	}
	if v := r.u32(); r.err == nil && v != version {
		return nil, fmt.Errorf("graphio: unsupported version %d", v)
	}
	d := &train.Data{}
	d.Name = r.str()
	g := &graph.CSR{}
	g.Indptr = r.i64s()
	g.Indices = r.i32s()
	if r.u32() == 1 {
		g.Weights = r.f32s()
	}
	d.G = g
	d.FeatDim = int(r.u32())
	feats := r.f32s()
	d.SetFeatures(feats)
	d.Labels = r.i32s()
	d.NumClasses = int(r.u32())
	d.Offsets = r.i64s()
	nShards := r.length()
	for i := 0; i < nShards && r.err == nil; i++ {
		d.Shards = append(d.Shards, r.i32s())
	}
	d.Val = r.i32s()
	d.ScaleFactor = math.Float64frombits(r.u64())
	d.GPUMemBytes = int64(r.u64())
	d.BenchBatch = int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if len(feats) != g.NumNodes()*d.FeatDim {
		return nil, fmt.Errorf("graphio: %d features for %d nodes x %d dims",
			len(feats), g.NumNodes(), d.FeatDim)
	}
	if len(d.Labels) != g.NumNodes() {
		return nil, fmt.Errorf("graphio: %d labels for %d nodes", len(d.Labels), g.NumNodes())
	}
	if len(d.Offsets) != len(d.Shards)+1 {
		return nil, fmt.Errorf("graphio: %d offsets for %d shards", len(d.Offsets), len(d.Shards))
	}
	return d, nil
}

// SaveFile writes prepared data to path (atomically via a temp file).
func SaveFile(path string, d *train.Data) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteData(f, d); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads prepared data from path.
func LoadFile(path string) (*train.Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadData(f)
}
