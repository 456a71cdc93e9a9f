// Package compress provides deterministic, seedable codecs for the float32
// payloads that ride the simulated fabric: model gradients (allreduce) and
// feature rows (all-to-all gathers, inter-machine NIC sends).
//
// A Codec answers two questions: how many bytes does a vector of n float32
// values occupy on the wire (WireBytes), and what values come out the far
// end (Encode then Decode). The comm package charges WireBytes for every
// codec-bearing transfer; the gradient allreduce also round-trips the
// actual data through the codec, so a lossy gradient codec degrades
// training accuracy for real instead of being modelled away by a
// wire-scale factor. Modelled payloads (feature rows, p3 activations) are
// priced only.
//
// All codecs are pure functions of (seed, input): the same seed and input
// produce bit-identical output on every rank and every run, which preserves
// the simulator's BSP guarantee that all model replicas stay equal.
package compress

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Buf is an encoded vector. Exactly one representation is populated,
// depending on the codec; N is always the logical element count.
type Buf struct {
	N int // logical float32 element count

	F32 []float32 // fp32: the values themselves (aliased, not copied)
	U16 []uint16  // fp16: IEEE half bits
	U8  []byte    // int8: quantised codes (plus Scales/Mins per chunk)
	I32 []int32   // topk: kept indices (values in F32, same length)

	// int8 per-chunk parameters, one pair per chunkSize-element chunk.
	Scales []float32
	Mins   []float32
}

// Codec encodes and decodes float32 vectors and accounts their wire size.
type Codec interface {
	// Name identifies the codec in reports and trace events.
	Name() string
	// WireBytes returns the on-wire size of an n-element vector, including
	// any per-chunk or per-entry metadata overhead.
	WireBytes(n int) int64
	// Encode compresses vals. The input is not modified; lossless codecs
	// may alias it in the returned Buf.
	Encode(vals []float32) *Buf
	// Decode expands b into out, which must have length b.N.
	Decode(b *Buf, out []float32)
}

// Parse builds a codec from a CLI spec. Accepted specs: "" or "none" (nil
// codec, meaning no compression), "fp32", "fp16", "int8", "topk" (default
// ratio 0.1), and "topk:<ratio>" with ratio in (0, 1]. seed makes the
// stochastic rounding of int8 reproducible.
func Parse(spec string, seed uint64) (Codec, error) {
	spec = strings.ToLower(strings.TrimSpace(spec))
	switch {
	case spec == "" || spec == "none":
		return nil, nil
	case spec == "fp32":
		return FP32{}, nil
	case spec == "fp16":
		return FP16{}, nil
	case spec == "int8":
		return NewInt8(seed), nil
	case spec == "topk":
		return NewTopK(0.1), nil
	case strings.HasPrefix(spec, "topk:"):
		r, err := strconv.ParseFloat(spec[len("topk:"):], 64)
		if err != nil || !(r > 0 && r <= 1) { // NaN fails both
			return nil, fmt.Errorf("compress: bad topk ratio %q (want 0 < ratio <= 1)", spec)
		}
		return NewTopK(r), nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q (want none, fp32, fp16, int8, topk[:ratio])", spec)
	}
}

// Name returns c's name, or "none" for the nil codec.
func Name(c Codec) string {
	if c == nil {
		return "none"
	}
	return c.Name()
}

// Identity reports whether c is lossless and adds no wire savings — nil or
// fp32 — so callers can skip the encode/decode round-trip entirely.
func Identity(c Codec) bool {
	if c == nil {
		return true
	}
	_, ok := c.(FP32)
	return ok
}

// WireBytes returns the wire size of an n-float32 vector under c, falling
// back to raw 4n bytes when c is nil.
func WireBytes(c Codec, n int) int64 {
	if c == nil {
		return 4 * int64(n)
	}
	return c.WireBytes(n)
}

// Roundtrip returns vals as the receiver would see them: Encode then Decode
// into a fresh slice. With a nil or identity codec it returns vals unchanged
// (no copy).
func Roundtrip(c Codec, vals []float32) []float32 {
	if Identity(c) {
		return vals
	}
	out := make([]float32, len(vals))
	c.Decode(c.Encode(vals), out)
	return out
}

// FP32 is the identity codec: full-precision floats, 4 bytes each. It is
// the explicit baseline of the accuracy-vs-bytes sweep.
type FP32 struct{}

func (FP32) Name() string          { return "fp32" }
func (FP32) WireBytes(n int) int64 { return 4 * int64(n) }
func (FP32) Encode(vals []float32) *Buf {
	return &Buf{N: len(vals), F32: vals}
}
func (FP32) Decode(b *Buf, out []float32) {
	copy(out, b.F32)
}

// FP16 truncates each value to IEEE 754 binary16 (round-to-nearest-even),
// halving wire bytes. Relative error is bounded by 2^-11 in the normal
// range; values beyond ±65504 saturate to ±Inf like real fp16 hardware.
type FP16 struct{}

func (FP16) Name() string          { return "fp16" }
func (FP16) WireBytes(n int) int64 { return 2 * int64(n) }

func (FP16) Encode(vals []float32) *Buf {
	u := make([]uint16, len(vals))
	for i, v := range vals {
		u[i] = f32to16(v)
	}
	return &Buf{N: len(vals), U16: u}
}

func (FP16) Decode(b *Buf, out []float32) {
	for i, h := range b.U16 {
		out[i] = f16to32(h)
	}
}

// f32to16 converts a float32 to IEEE binary16 bits with round-to-nearest-
// even, saturating overflow to infinity.
func f32to16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f: // overflow or inf/nan
		if int32(bits>>23&0xff) == 0xff && mant != 0 {
			return sign | 0x7e00 // NaN
		}
		return sign | 0x7c00 // Inf
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign // underflows to zero
		}
		mant |= 0x800000 // implicit leading 1
		shift := uint32(14 - exp)
		half := mant >> shift
		// Round to nearest even on the bits shifted out.
		rem := mant & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | uint16(half)
	default:
		half := uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++ // may carry into the exponent; that is correct rounding
		}
		return sign | half
	}
}

// f16to32 expands IEEE binary16 bits to float32.
func f16to32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // inf/nan
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	case exp == 0: // subnormal or zero
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Normalise the subnormal.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// chunkSize is the int8 quantisation granularity: each chunk carries its own
// (min, scale) pair so outliers only distort their neighbourhood.
const chunkSize = 256

// Int8 quantises each chunkSize-element chunk to 8-bit codes with a
// per-chunk affine map code = (v - min) / scale, scale = (max - min) / 255.
// Rounding is stochastic — the round-up probability equals the fractional
// part — which makes the quantiser unbiased in expectation; the random bits
// are a pure hash of (seed, element index, value bits), so encoding is
// deterministic and identical on every rank. Absolute error per element is
// strictly less than scale, i.e. (max-min)/255 of the element's chunk.
type Int8 struct {
	seed uint64
}

// NewInt8 returns an int8 codec whose stochastic rounding is driven by seed.
func NewInt8(seed uint64) Int8 { return Int8{seed: seed} }

func (Int8) Name() string { return "int8" }

func (Int8) WireBytes(n int) int64 {
	chunks := (int64(n) + chunkSize - 1) / chunkSize
	return int64(n) + 8*chunks // 1 byte/code + (min, scale) float32 per chunk
}

func (c Int8) Encode(vals []float32) *Buf {
	n := len(vals)
	chunks := (n + chunkSize - 1) / chunkSize
	b := &Buf{
		N:      n,
		U8:     make([]byte, n),
		Scales: make([]float32, chunks),
		Mins:   make([]float32, chunks),
	}
	for ci := 0; ci < chunks; ci++ {
		lo, hi := ci*chunkSize, (ci+1)*chunkSize
		if hi > n {
			hi = n
		}
		mn, mx := vals[lo], vals[lo]
		for _, v := range vals[lo+1 : hi] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		b.Mins[ci] = mn
		if mn == mx {
			// Constant chunk: scale 0, codes stay zero, decode reproduces
			// mn exactly.
			continue
		}
		scale := (mx - mn) / 255
		b.Scales[ci] = scale
		for i := lo; i < hi; i++ {
			q := (vals[i] - mn) / scale
			// q is non-negative (vals[i] >= mn), so integer truncation is
			// floor — same result as the float64 math.Floor round trip.
			fl := float32(int32(q))
			frac := q - fl
			code := int32(fl)
			if frac > 0 {
				// Stochastic rounding: round up with probability frac.
				h := rng.Mix(c.seed, uint64(i), uint64(math.Float32bits(vals[i])))
				if float32(h>>40)*(1.0/(1<<24)) < frac {
					code++
				}
			}
			if code < 0 {
				code = 0
			} else if code > 255 {
				code = 255
			}
			b.U8[i] = byte(code)
		}
	}
	return b
}

func (Int8) Decode(b *Buf, out []float32) {
	n := len(out)
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		ci := lo / chunkSize
		mn, sc := b.Mins[ci], b.Scales[ci]
		dst := out[lo:hi]
		src := b.U8[lo:hi:hi]
		if sc == 0 {
			// Constant chunk: every element decodes to the same value. The
			// explicit mn + 0*sc keeps IEEE semantics (zero-sign handling)
			// identical to the general path below for any code byte.
			v := mn + float32(0*sc)
			for i := range dst {
				dst[i] = v
			}
			continue
		}
		for i, u := range src {
			dst[i] = mn + float32(float32(u)*sc)
		}
	}
}

// TopK keeps only the ceil(ratio*n) largest-magnitude entries; the rest
// decode to zero. Each kept entry costs 8 wire bytes (int32 index + float32
// value), so the codec only pays off below ratio 0.5. Selection is
// deterministic: ties in magnitude break toward the lower index.
type TopK struct {
	Ratio float64
}

// NewTopK returns a top-k sparsifier keeping a ratio fraction of entries.
func NewTopK(ratio float64) TopK { return TopK{Ratio: ratio} }

func (t TopK) Name() string { return fmt.Sprintf("topk%.2g", t.Ratio) }

func (t TopK) k(n int) int {
	k := int(math.Ceil(t.Ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

func (t TopK) WireBytes(n int) int64 {
	if n == 0 {
		return 0
	}
	return 8 * int64(t.k(n)) // index + value per kept entry
}

func (t TopK) Encode(vals []float32) *Buf {
	n := len(vals)
	b := &Buf{N: n}
	if n == 0 {
		return b
	}
	k := t.k(n)
	// Deterministic selection of the k largest |v|: a size-k min-heap keyed
	// by (|v|, -index) so equal magnitudes prefer the lower index.
	type ent struct {
		abs float32
		idx int32
	}
	less := func(a, b ent) bool { // a strictly worse (smaller) than b
		if a.abs != b.abs {
			return a.abs < b.abs
		}
		return a.idx > b.idx
	}
	heap := make([]ent, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && less(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i, v := range vals {
		e := ent{abs: float32(math.Abs(float64(v))), idx: int32(i)}
		if len(heap) < k {
			heap = append(heap, e)
			if len(heap) == k {
				for j := k/2 - 1; j >= 0; j-- {
					down(j)
				}
			}
			continue
		}
		if less(heap[0], e) {
			heap[0] = e
			down(0)
		}
	}
	if len(heap) < k { // n < k cannot happen (k clamped), but keep heapified
		for j := len(heap)/2 - 1; j >= 0; j-- {
			down(j)
		}
	}
	// Emit in ascending index order for a canonical wire image.
	idxs := make([]int32, len(heap))
	for i, e := range heap {
		idxs[i] = e.idx
	}
	slices.Sort(idxs)
	b.I32 = idxs
	b.F32 = make([]float32, len(idxs))
	for i, ix := range idxs {
		b.F32[i] = vals[ix]
	}
	return b
}

func (TopK) Decode(b *Buf, out []float32) {
	for i := range out {
		out[i] = 0
	}
	for i, ix := range b.I32 {
		out[ix] = b.F32[i]
	}
}
