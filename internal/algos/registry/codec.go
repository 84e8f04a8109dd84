package registry

// The codec layer behind the catalog.  Every fj kernel speaks one wire
// encoding — a flat []int64 word vector, the same canonical form the
// cross-backend equality gate compares — but computes on the typed views of
// internal/fj (I64, F64, C128).  The wire form of a float64 is its IEEE-754
// bit pattern and that of a complex128 its (re, im) pair of bit patterns,
// which is exactly how Go lays those types out in memory.  A real-backend
// view therefore shares the wire words instead of converting them, and a
// sim view is loaded from them without charging the simulation.  Both
// directions are exact bit casts (NaN payloads included), so
// decode→encode is byte-identity, which FuzzInvokeCodec pins for every
// kernel.  A shape adds the kernel's geometry on top: word count,
// structural constraints, and the input→output size map.  A catalog entry
// (fj.go) names its view codec and its shape; everything else about moving
// words in and out is derived here.

import (
	"fmt"
	"unsafe"

	"repro/internal/fj"
)

// Codec converts between the wire word encoding and one fj element type.
// There are exactly three, keyed off the view types of internal/fj; each
// Invocable carries the one its payload decodes through.
type Codec struct {
	// Kind names the fj view type the codec decodes into: "i64", "f64"
	// (IEEE-754 bit words), or "c128" (interleaved re/im bit-word pairs).
	Kind string
	// WordsPerElem is the wire width of one element.
	WordsPerElem int64
	// RoundTrip decodes words into the native element type and re-encodes
	// them into a fresh vector.  All three codecs are exact bit casts, so
	// the result is byte-identical to w; len(w) must be a multiple of
	// WordsPerElem.
	RoundTrip func(w []int64) []int64
}

// view is the set of fj views a catalog kernel computes on.
type view interface {
	fj.I64 | fj.F64 | fj.C128
	Words() []int64
}

// viewCodec is a Codec bound to its fj view type.
type viewCodec[V view] struct {
	Codec
	// alloc allocates a zeroed view of elems elements in env.
	alloc func(env *fj.Env, elems int64) V
	// native returns a real-backend view sharing w's memory.
	native func(w []int64) V
	// raw returns the words a real-backend view's memory holds, nil for a
	// sim view.
	raw func(v V) []int64
	// store writes wire words into a sim view without charging the
	// simulation.
	store func(v V, w []int64)
}

// newViewCodec completes vc with its Codec; RoundTrip views w natively and
// dumps it back into fresh words.
func newViewCodec[V view](kind string, wpe int64, vc viewCodec[V]) *viewCodec[V] {
	vc.Codec = Codec{Kind: kind, WordsPerElem: wpe,
		RoundTrip: func(w []int64) []int64 { return vc.native(w).Words() }}
	return &vc
}

// input returns a view holding w: allocated and loaded in a sim env, a
// view sharing w on the real backend.
func (vc *viewCodec[V]) input(env *fj.Env, w []int64) V {
	if env.Real() {
		return vc.native(w)
	}
	v := vc.alloc(env, int64(len(w))/vc.WordsPerElem)
	vc.store(v, w)
	return v
}

// load writes wire words into v without charging the simulation.
func (vc *viewCodec[V]) load(v V, w []int64) {
	if r := vc.raw(v); r != nil {
		copy(r, w)
		return
	}
	vc.store(v, w)
}

// peek returns v's wire words for reading: v's own memory on the real
// backend, a fresh dump under the simulator.
func (vc *viewCodec[V]) peek(v V) []int64 {
	if r := vc.raw(v); r != nil {
		return r
	}
	return v.Words()
}

var (
	i64Views = newViewCodec("i64", 1, viewCodec[fj.I64]{
		alloc:  (*fj.Env).I64,
		native: fj.WrapI64,
		raw:    fj.I64.Raw,
		store: func(v fj.I64, w []int64) {
			for i, x := range w {
				v.Store(int64(i), x)
			}
		},
	})
	f64Views = newViewCodec("f64", 1, viewCodec[fj.F64]{
		alloc:  (*fj.Env).F64,
		native: func(w []int64) fj.F64 { return fj.WrapF64(cast[float64](w)) },
		raw:    func(v fj.F64) []int64 { return cast[int64](v.Raw()) },
		store: func(v fj.F64, w []int64) {
			for i, x := range cast[float64](w) {
				v.Store(int64(i), x)
			}
		},
	})
	c128Views = newViewCodec("c128", 2, viewCodec[fj.C128]{
		alloc:  (*fj.Env).C128,
		native: func(w []int64) fj.C128 { return fj.WrapC128(cast[complex128](w)) },
		raw:    func(v fj.C128) []int64 { return cast[int64](v.Raw()) },
		store: func(v fj.C128, w []int64) {
			for i, x := range cast[complex128](w) {
				v.Store(int64(i), x)
			}
		},
	})
)

// cast reinterprets s's memory as a slice of To without copying (nil stays
// nil).  All three element types are 8-byte aligned, and the wire encoding
// is their in-memory bit pattern.
func cast[To, From int64 | float64 | complex128](s []From) []To {
	n := uintptr(len(s)) * unsafe.Sizeof(*new(From)) / unsafe.Sizeof(*new(To))
	return unsafe.Slice((*To)(unsafe.Pointer(unsafe.SliceData(s))), n)
}

// shape describes one kernel's wire geometry.  check, outWords and inWords
// become the Invocable's Validate, OutLen and InWords verbatim: check
// accepts a payload only if Run is panic-free on it, outWords derives the
// output word count of an accepted payload, and inWords maps request size
// n to payload words (saturating, so callers can cap before allocating).
// pow2 restricts the size n the generator accepts to zero or a power of
// two (the halving recursions).
type shape struct {
	check    func(w []int64) error
	outWords func(w []int64) int64
	inWords  func(n int64) int64
	pow2     bool
}

// size rejects a generator size n the shape cannot encode.
func (sh shape) size(n int64) error {
	if n < 0 {
		return fmt.Errorf("n = %d is negative", n)
	}
	if sh.pow2 && n&(n-1) != 0 {
		return fmt.Errorf("n = %d is not a power of two", n)
	}
	return nil
}

// flatShape accepts any word count; output is input-sized.  The geometry
// of the flat-vector kernels (sort, sortx, scan).
var flatShape = shape{
	check:    func([]int64) error { return nil },
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return n },
}

// pairShape is gather's 2n geometry: n indices then n values, every index
// below n (negative indices select the sentinel).
var pairShape = shape{
	check: func(w []int64) error {
		if len(w)%2 != 0 {
			return fmt.Errorf("payload has %d words, want 2·n (indices then values)", len(w))
		}
		n := int64(len(w) / 2)
		for i := int64(0); i < n; i++ {
			if w[i] >= n {
				return fmt.Errorf("index %d at position %d out of range [0,%d)", w[i], i, n)
			}
		}
		return nil
	},
	outWords: func(w []int64) int64 { return int64(len(w) / 2) },
	inWords:  func(n int64) int64 { return satMul(2, n) },
}

// matPairShape is the 2n² geometry of the matrix products (strassen,
// matmul): row-major A then B, n a power of two (both recursions halve).
var matPairShape = shape{
	check: func(w []int64) error {
		_, err := matPairDim(int64(len(w)))
		return err
	},
	outWords: func(w []int64) int64 { return int64(len(w) / 2) },
	inWords:  func(n int64) int64 { return satMul(2, satMul(n, n)) },
	pow2:     true,
}

// squareShape is transpose's n² geometry: one row-major square matrix of
// any side.
var squareShape = shape{
	check: func(w []int64) error {
		_, err := squareDim(int64(len(w)), false)
		return err
	},
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return satMul(n, n) },
}

// fftShape is 2n words of interleaved complex samples, n zero or a power
// of two (the decimation recursion halves).
var fftShape = shape{
	check: func(w []int64) error {
		if len(w)%2 != 0 {
			return fmt.Errorf("payload has %d words, want 2·n (re/im interleaved)", len(w))
		}
		n := int64(len(w) / 2)
		if n&(n-1) != 0 {
			return fmt.Errorf("transform length %d is not a power of two", n)
		}
		return nil
	},
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return satMul(2, n) },
	pow2:     true,
}

// listShape is listrank's geometry: n successor indices that must encode a
// single chain — every value in [−1, n), exactly one −1 tail, no node with
// two predecessors, every node reachable from the unique head.  In-range
// cycles would not crash FJRank (pointer jumping runs a fixed ⌈log₂ n⌉
// rounds regardless) but leave the ranks meaningless, so they are a shape
// error, not a kernel bug.
var listShape = shape{
	check:    validList,
	outWords: func(w []int64) int64 { return int64(len(w)) },
	inWords:  func(n int64) int64 { return n },
}

func validList(w []int64) error {
	n := int64(len(w))
	if n == 0 {
		return nil
	}
	pred := make([]bool, n)
	tails := int64(0)
	for i, s := range w {
		if s < -1 || s >= n {
			return fmt.Errorf("successor %d at node %d out of range [-1,%d)", s, i, n)
		}
		if s == -1 {
			tails++
			continue
		}
		if pred[s] {
			return fmt.Errorf("node %d has two predecessors", s)
		}
		pred[s] = true
	}
	if tails != 1 {
		return fmt.Errorf("want exactly one tail (successor -1), have %d", tails)
	}
	// One tail and all-distinct successors leave exactly one head (n nodes,
	// n−1 in-edges).  A cycle node always has its in-edge from within the
	// cycle, so the head walk can never enter one: if it covers fewer than
	// n nodes, the rest sit on cycles.
	count := int64(0)
	for at := listHead(w); at != -1; at = w[at] {
		count++
	}
	if count != n {
		return fmt.Errorf("successors do not form a single list: %d of %d nodes reachable from the head", count, n)
	}
	return nil
}

// listHead returns the no-predecessor node of a validList-accepted payload
// (−1 when empty).
func listHead(w []int64) int64 {
	pred := make([]bool, len(w))
	for _, s := range w {
		if s >= 0 {
			pred[s] = true
		}
	}
	for i, p := range pred {
		if !p {
			return int64(i)
		}
	}
	return -1
}

// squareDim decodes the side of an n²-word square payload; pow2 demands a
// power-of-two side on top.
func squareDim(words int64, pow2 bool) (int64, error) {
	n := int64(0)
	for n*n < words {
		n++
	}
	if n*n != words {
		return 0, fmt.Errorf("payload of %d words is not a square matrix", words)
	}
	if pow2 && n&(n-1) != 0 {
		return 0, fmt.Errorf("matrix dimension %d is not a power of two", n)
	}
	return n, nil
}

// matPairDim decodes the matrix dimension of a 2n²-word A-then-B payload.
func matPairDim(words int64) (int64, error) {
	if words%2 != 0 {
		return 0, fmt.Errorf("payload has %d words, want 2·n² (A then B)", words)
	}
	return squareDim(words/2, true)
}

// satMul multiplies saturating at MaxInt64, for InWords overflow safety.
func satMul(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		return a * b
	}
	if a > (1<<63-1)/b {
		return 1<<63 - 1
	}
	return a * b
}
