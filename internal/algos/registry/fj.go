package registry

import (
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/algos/fft"
	"repro/internal/algos/gather"
	"repro/internal/algos/listrank"
	"repro/internal/algos/mat"
	"repro/internal/algos/matmul"
	"repro/internal/algos/scan"
	"repro/internal/algos/sortx"
	"repro/internal/algos/spms"
	"repro/internal/algos/strassen"
	"repro/internal/core"
	"repro/internal/fj"
	"repro/internal/machine"
)

// The fj catalog: every kernel here has exactly one algorithm source (the
// FJ* function in its internal/algos package, written against internal/fj)
// and exactly one catalog entry — one seeded generator, one run adapter
// over fj views and one word-level verifier.  From that entry the registry
// derives the sim work unit (a core.Node tree for the simulated multicore),
// the real work unit (the same source scheduled on internal/rt) and the
// served Invocable.  TestCrossBackendEquality holds the two lowerings to
// byte-identical outputs, and TestServedMatchesCatalog holds the served
// Run to the experiments' output on the same input.

// FJWork is one prepared fj kernel invocation: a backend-neutral root task,
// an output verifier, and the canonical word dump of the kernel's output
// (what the cross-backend equality gate compares).
type FJWork struct {
	Root   func(*fj.Ctx)
	Verify func() bool
	Output func() []int64
}

// FJKernel is a unified kernel: one fork-join source lowered to both
// backends.
type FJKernel struct {
	Name string
	Desc string
	// SimSizes is the sim-backend n-sweep (ascending, simulator-scale).
	SimSizes []int64
	// InputWords converts n to the input size in words.
	InputWords func(n int64) int64
	// Size picks the real-backend problem size (quick vs full sweeps).
	Size func(quick bool) int
	// Setup allocates seeded inputs in env (sim or real) and returns the
	// work unit.  Kernels are built so the two lowerings produce
	// byte-identical Output for equal (n, seed).
	Setup func(env *fj.Env, n int64, seed uint64) FJWork
}

// simKernel synthesizes the registry's sim-backend view of an fj kernel.
func (f *FJKernel) simKernel() *SimKernel {
	return &SimKernel{
		Name: f.Name, Desc: f.Desc,
		Typ: "fj", F: "-", L: "-", W: "-", TInf: "-", Q: "-",
		Sizes:      f.SimSizes,
		InputWords: f.InputWords,
		Build: func(m *machine.Machine, n int64, seed uint64) *core.Node {
			w := f.Setup(fj.NewSimEnv(m), n, seed)
			return fj.SimNode(f.InputWords(n), f.Name, w.Root)
		},
	}
}

// kernel is one fj kernel's catalog entry, the single source of its
// FJKernel and its Invocable.
type kernel[V view] struct {
	name   string
	served string // the Invocable's name when it differs from name
	desc   string
	// payload documents the wire encoding (surfaced on /kernels).
	payload string
	views   *viewCodec[V]
	shape   shape
	// simSizes is the sim n-sweep; quick and full are the real sizes.
	simSizes    []int64
	quick, full int
	// inputWords converts n to the input size in words (the sim size hint).
	inputWords func(n int64) int64
	// gen builds the seeded size-n input words; n has passed shape.size.
	gen func(n int64, seed uint64) []int64
	// run executes the kernel reading in and writing out.  An inPlace
	// kernel transforms out, which holds the input when run starts (in is
	// then the same view).
	run     func(c *fj.Ctx, in, out V)
	inPlace bool
	// verify checks output words against input words from scratch,
	// serially and independently of the kernel.
	verify func(in, out []int64) bool
}

// entry is a catalog entry's derived pair.
type entry struct {
	fj  FJKernel
	inv Invocable
}

func (k kernel[V]) entry() entry {
	served := k.served
	if served == "" {
		served = k.name
	}
	return entry{
		fj: FJKernel{
			Name: k.name, Desc: k.desc,
			SimSizes: k.simSizes, InputWords: k.inputWords,
			Size: func(quick bool) int {
				if quick {
					return k.quick
				}
				return k.full
			},
			Setup: k.setup,
		},
		inv: Invocable{
			Name: served, Desc: k.desc, Payload: k.payload, Codec: &k.views.Codec,
			Validate: k.shape.check, OutLen: k.shape.outWords, InWords: k.shape.inWords,
			Run: k.invoke,
			Gen: func(n int64, seed uint64) ([]int64, error) {
				if err := k.shape.size(n); err != nil {
					return nil, err
				}
				return k.gen(n, seed), nil
			},
			Verify: k.verify,
		},
	}
}

// setup loads the generated words into views allocated in env — inputs
// first, then the output, which an in-place kernel preloads with the input
// outside the charged run.
func (k kernel[V]) setup(env *fj.Env, n int64, seed uint64) FJWork {
	w := k.gen(n, seed)
	var in V
	if !k.inPlace {
		in = k.views.input(env, w)
	}
	out := k.views.alloc(env, k.shape.outWords(w)/k.views.WordsPerElem)
	if k.inPlace {
		k.views.load(out, w)
		in = out
	}
	return FJWork{
		Root:   func(c *fj.Ctx) { k.run(c, in, out) },
		Verify: func() bool { return k.verify(w, k.views.peek(out)) },
		Output: out.Words,
	}
}

// invoke is the Invocable's Run: the kernel runs on native views that share
// the payload's and the output's words.
func (k kernel[V]) invoke(c *fj.Ctx, in, out []int64) {
	tout := k.views.native(out)
	tin := tout
	if k.inPlace {
		copy(out, in)
	} else {
		tin = k.views.native(in)
	}
	k.run(c, tin, tout)
}

var catalog = []entry{
	kernel[fj.F64]{
		name: "matmul", desc: "cache-oblivious Depth-n-MM recursion on float64 matrices",
		payload: "2n² f64-bit words: row-major A then B (n a power of two); output is A·B",
		views:   f64Views, shape: matPairShape,
		simSizes: []int64{16, 32}, quick: 128, full: 256,
		inputWords: func(n int64) int64 { return n * n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n*n)
			fillFloats(w[:n*n], seed+1, 2048)
			fillFloats(w[n*n:], seed+2, 2048)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.F64) {
			n := side(out.Len())
			nn := n * n
			matmul.FJMul(c, in.Slice(0, nn), in.Slice(nn, 2*nn), out, n)
		},
		verify: func(in, out []int64) bool { return verifyProduct(in, out, true) },
	}.entry(),
	kernel[fj.I64]{
		name: "strassen", desc: "Strassen multiplication with parallel recursive products",
		payload: "2n² i64 words: row-major A then B (n a power of two); output is A·B",
		views:   i64Views, shape: matPairShape,
		simSizes: []int64{16, 32}, quick: 128, full: 256,
		inputWords: func(n int64) int64 { return n * n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n*n)
			fillInts(w[:n*n], seed+3, 10, 0)
			fillInts(w[n*n:], seed+4, 10, 0)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.I64) {
			n := side(out.Len())
			nn := n * n
			strassen.FJMul(c, in.Slice(0, nn), in.Slice(nn, 2*nn), out, n)
		},
		verify: func(in, out []int64) bool { return verifyProduct(in, out, false) },
	}.entry(),
	kernel[fj.I64]{
		name: "sortx", desc: "merge sort with merge-path parallel merge",
		payload: "n i64 keys; output sorted ascending",
		views:   i64Views, shape: flatShape,
		simSizes: []int64{512, 2048}, quick: 1 << 16, full: 1 << 19,
		inputWords: func(n int64) int64 { return n },
		gen:        func(n int64, seed uint64) []int64 { return keys(n, seed+5) },
		run:        func(c *fj.Ctx, _, out fj.I64) { sortx.FJSort(c, out) },
		inPlace:    true,
		verify:     verifySorted,
	}.entry(),
	kernel[fj.I64]{
		name: "spms", served: "sort",
		desc:    "SPMS sort: √n-way recursion with full k-way sample-partition merges",
		payload: "n i64 keys; output sorted ascending",
		views:   i64Views, shape: flatShape,
		// Both sizes sit well above the simulated cache (M = 1024 words) so
		// the EXP14 constant fit lands where capacity misses and steal
		// excesses are already live: the k-way merge's serial sample passes
		// keep the parallel excess near zero until the bucket recursion is
		// deep enough to matter, which needs n ≥ 4096.
		simSizes: []int64{4096, 8192}, quick: 1 << 16, full: 1 << 19,
		inputWords: func(n int64) int64 { return n },
		gen:        func(n int64, seed uint64) []int64 { return keys(n, seed+12) },
		run:        func(c *fj.Ctx, _, out fj.I64) { spms.FJSort(c, out) },
		inPlace:    true,
		verify:     verifySorted,
	}.entry(),
	kernel[fj.I64]{
		name: "scan", desc: "three-phase parallel prefix sums",
		payload: "n i64 values; output[i] = values[0]+…+values[i]",
		views:   i64Views, shape: flatShape,
		simSizes: []int64{1024, 4096}, quick: 1 << 19, full: 1 << 21,
		inputWords: func(n int64) int64 { return n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, n)
			fillInts(w, seed+6, 1000, 500)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.I64) { scan.FJPrefix(c, in, out) },
		verify: func(in, out []int64) bool {
			if len(in) != len(out) {
				return false
			}
			var s int64
			for i := range in {
				s += in[i]
				if out[i] != s {
					return false
				}
			}
			return true
		},
	}.entry(),
	kernel[fj.C128]{
		name: "fft", desc: "parallel decimation-in-time FFT",
		payload: "2n f64-bit words: re/im interleaved (n a power of two); output is the forward DFT",
		views:   c128Views, shape: fftShape,
		simSizes: []int64{128, 512}, quick: 1 << 13, full: 1 << 15,
		inputWords: func(n int64) int64 { return 2 * n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n)
			fillFloats(w, seed+7, 1000)
			return w
		},
		run:     func(c *fj.Ctx, _, out fj.C128) { fft.FJForward(c, out) },
		inPlace: true,
		verify: func(in, out []int64) bool {
			if len(out) != len(in) || len(in)%2 != 0 {
				return false
			}
			x, y := cast[complex128](in), cast[complex128](out)
			n := int64(len(x))
			g := probes(in)
			for t := 0; t < fjProbes && n > 0; t++ {
				k := g.Next() % n
				var s complex128
				for j := int64(0); j < n; j++ {
					ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
					s += x[j] * complex(math.Cos(ang), math.Sin(ang))
				}
				if cmplx.Abs(y[k]-s) > 1e-6*float64(n) {
					return false
				}
			}
			return true
		},
	}.entry(),
	kernel[fj.F64]{
		name: "transpose", desc: "cache-oblivious rectangular transpose on float64 matrices",
		payload: "n² f64-bit words: one row-major square matrix; output is its transpose",
		views:   f64Views, shape: squareShape,
		simSizes: []int64{32, 64}, quick: 512, full: 1024,
		inputWords: func(n int64) int64 { return n * n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, n*n)
			fillFloats(w, seed+8, 2048)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.F64) {
			n := side(out.Len())
			mat.FJTranspose(c, in, out, n, n)
		},
		verify: func(in, out []int64) bool {
			n, err := squareDim(int64(len(in)), false)
			if err != nil || len(out) != len(in) {
				return false
			}
			// A transpose only moves bits, so verify at the word level —
			// exact for every payload, NaN bit patterns included.
			for i := int64(0); i < n; i++ {
				for j := int64(0); j < n; j++ {
					if out[j*n+i] != in[i*n+j] {
						return false
					}
				}
			}
			return true
		},
	}.entry(),
	kernel[fj.I64]{
		name: "gather", desc: "parallel gather out[i] = vals[idx[i]] over a partial permutation",
		payload: "2n i64 words: n indices (< n; negative → sentinel −1) then n values",
		views:   i64Views, shape: pairShape,
		simSizes: []int64{512, 2048}, quick: 1 << 18, full: 1 << 20,
		inputWords: func(n int64) int64 { return 2 * n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, 2*n)
			fillPartialPerm(w[:n], seed+9)
			fillInts(w[n:], seed+10, 1<<30, 0)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.I64) {
			n := out.Len()
			gather.FJGather(c, in.Slice(0, n), in.Slice(n, 2*n), out, -1)
		},
		verify: func(in, out []int64) bool {
			n := len(in) / 2
			if len(in)%2 != 0 || len(out) != n {
				return false
			}
			idx, vals := in[:n], in[n:]
			for i := 0; i < n; i++ {
				want := int64(-1)
				if idx[i] >= 0 {
					want = vals[idx[i]]
				}
				if out[i] != want {
					return false
				}
			}
			return true
		},
	}.entry(),
	kernel[fj.I64]{
		name: "listrank", desc: "list ranking by double-buffered pointer jumping",
		payload: "n i64 successor indices: a single chain, −1 terminates the tail",
		views:   i64Views, shape: listShape,
		simSizes: []int64{256, 1024}, quick: 1 << 14, full: 1 << 16,
		inputWords: func(n int64) int64 { return n },
		gen: func(n int64, seed uint64) []int64 {
			w := make([]int64, n)
			fillPermList(w, seed+11)
			return w
		},
		run: func(c *fj.Ctx, in, out fj.I64) { listrank.FJRank(c, in, out) },
		verify: func(in, out []int64) bool {
			n := int64(len(in))
			if int64(len(out)) != n || validList(in) != nil {
				return false
			}
			// Walk the chain serially: ranks must descend from n−1 to 0.
			at, want := listHead(in), n-1
			for at >= 0 {
				if out[at] != want {
					return false
				}
				at = in[at]
				want--
			}
			return want == -1
		},
	}.entry(),
}

// fjProbes is how many output samples the O(n)-per-sample verifiers check.
const fjProbes = 8

// probes returns the generator of a payload's verification probes, seeded
// from its words so that every input probes its own positions.
func probes(w []int64) LCG {
	g := LCG(len(w))
	for _, x := range w {
		g = g*31 + LCG(x)
	}
	return g
}

// side returns the side of a square view of nn elements.
func side(nn int64) int64 {
	n, _ := squareDim(nn, false)
	return n
}

// verifyProduct recomputes fjProbes entries of out = A·B from a 2n²-word
// A-then-B payload: exactly on i64 words, to within 1e-6·n on f64 words.
func verifyProduct(in, out []int64, float bool) bool {
	n, err := matPairDim(int64(len(in)))
	if err != nil || int64(len(out)) != n*n {
		return false
	}
	a, b := in[:n*n], in[n*n:]
	af, bf, of := cast[float64](a), cast[float64](b), cast[float64](out)
	g := probes(in)
	for t := 0; t < fjProbes && n > 0; t++ {
		i, j := g.Next()%n, g.Next()%n
		if float {
			var s float64
			for k := int64(0); k < n; k++ {
				s += af[i*n+k] * bf[k*n+j]
			}
			if math.Abs(of[i*n+j]-s) > 1e-6*float64(n) {
				return false
			}
			continue
		}
		var s int64
		for k := int64(0); k < n; k++ {
			s += a[i*n+k] * b[k*n+j]
		}
		if out[i*n+j] != s {
			return false
		}
	}
	return true
}

// verifySorted checks that out is exactly the ascending sort of in.
func verifySorted(in, out []int64) bool {
	if len(in) != len(out) {
		return false
	}
	want := slices.Clone(in)
	slices.Sort(want)
	return slices.Equal(out, want)
}

// keys returns n seeded sort keys in [0, 2³⁰).
func keys(n int64, seed uint64) []int64 {
	w := make([]int64, n)
	fillInts(w, seed, 1<<30, 0)
	return w
}

// fillInts fills w with seeded values in [−lo, mod−lo).
func fillInts(w []int64, seed uint64, mod, lo int64) {
	g := LCG(seed)
	for i := range w {
		w[i] = g.Next()%mod - lo
	}
}

// fillFloats fills w with the bit words of seeded values in [−0.5, 0.5)
// on a grid of 1/res.
func fillFloats(w []int64, seed uint64, res int64) {
	g := LCG(seed)
	for i := range w {
		w[i] = int64(math.Float64bits(float64(g.Next()%res)/float64(res) - 0.5))
	}
}

// shuffled returns a seeded uniform permutation of [0, n).
func shuffled(n int64, seed uint64) []int64 {
	g := LCG(seed)
	p := make([]int64, n)
	for i := range p {
		p[i] = int64(i)
	}
	for i := n - 1; i > 0; i-- {
		j := g.Next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// fillPartialPerm makes idx a seeded partial permutation of [0, len(idx))
// with every 7th slot negative (exercising the sentinel path).
func fillPartialPerm(idx []int64, seed uint64) {
	for i, x := range shuffled(int64(len(idx)), seed) {
		if i%7 == 3 {
			x = -1
		}
		idx[i] = x
	}
}

// fillPermList stores a seeded random-permutation linked list in succ,
// −1 terminating the tail.
func fillPermList(succ []int64, seed uint64) {
	order := shuffled(int64(len(succ)), seed)
	for k, at := range order {
		next := int64(-1)
		if k+1 < len(order) {
			next = order[k+1]
		}
		succ[at] = next
	}
}
