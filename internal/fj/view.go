package fj

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/mem"
)

// Env allocates the typed views a kernel's inputs and outputs live in.  A
// sim Env draws block-aligned arrays from the simulated machine's address
// space (so accesses through a Ctx drive the cache model); a real Env backs
// views with native Go slices.
type Env struct {
	m *machine.Machine // nil on the real backend
}

// NewSimEnv returns an Env allocating in m's simulated address space.
func NewSimEnv(m *machine.Machine) *Env { return &Env{m: m} }

// NewRealEnv returns an Env allocating native slices.
func NewRealEnv() *Env { return &Env{} }

// Real reports whether the Env allocates native memory.
func (e *Env) Real() bool { return e.m == nil }

// Machine returns the simulated machine (nil for a real Env).
func (e *Env) Machine() *machine.Machine { return e.m }

// I64 allocates an n-element int64 view.
func (e *Env) I64(n int64) I64 {
	if e.m != nil {
		return I64{a: mem.NewArray(e.m.Space, n)}
	}
	return I64{s: make([]int64, n)}
}

// F64 allocates an n-element float64 view.
func (e *Env) F64(n int64) F64 {
	if e.m != nil {
		return F64{a: mem.NewArray(e.m.Space, n)}
	}
	return F64{s: make([]float64, n)}
}

// C128 allocates an n-element complex128 view.
func (e *Env) C128(n int64) C128 {
	if e.m != nil {
		return C128{a: mem.NewCArray(e.m.Space, n)}
	}
	return C128{s: make([]complex128, n)}
}

// WrapI64 wraps an existing native slice as a real-backend view without
// copying — the entry point for callers (the kernel service) whose payloads
// already live in Go memory.  The view shares s, so the caller sees every
// write the kernel makes.  Wrapped views are real-backend only: they charge
// nothing and cannot be used under the simulator.
func WrapI64(s []int64) I64 { return I64{s: s} }

// WrapF64 wraps an existing native float64 slice as a real-backend view
// without copying (see WrapI64).
func WrapF64(s []float64) F64 { return F64{s: s} }

// WrapC128 wraps an existing native complex128 slice as a real-backend view
// without copying (see WrapI64).
func WrapC128(s []complex128) C128 { return C128{s: s} }

// AllocI64 allocates an n-element zeroed int64 view mid-computation: a
// charged, block-aligned allocation from the executing core's arena on the
// simulator (the paper's allocation property: per-core allocations never
// share a block), a recycled cache-line-aligned slab from the executing
// worker's arena shard on real hardware.  Pair real allocations with
// FreeI64 when the view is dead so the kernel's whole recursion reuses one
// footprint; an unfreed view is merely garbage-collected like any slice.
func (c *Ctx) AllocI64(n int64) I64 {
	if c.sc != nil {
		return I64{a: c.sc.AllocArray(n)}
	}
	s := c.rc.Scratch().I64.Get(n)
	clear(s)
	return I64{s: s, ar: true}
}

// ScratchI64 allocates like AllocI64 but skips zeroing the slab on the real
// backend — for scratch the caller fully writes before reading.  Identical
// to AllocI64 under the simulator (same charge profile).
func (c *Ctx) ScratchI64(n int64) I64 {
	if c.sc != nil {
		return I64{a: c.sc.AllocArray(n)}
	}
	return I64{s: c.rc.Scratch().I64.Get(n), ar: true}
}

// FreeI64 releases a view obtained from AllocI64/ScratchI64 back to the
// executing worker's arena; the caller must not touch the view (or any
// sub-view of it) afterwards, and must not free a view twice.  Views that
// did not come from an arena Alloc — Env allocations, WrapI64 wrappings,
// sub-views made by Slice — are silently left alone, so a Free can never
// recycle memory the arena does not own.  No-op under the simulator.
func (c *Ctx) FreeI64(v I64) {
	if !v.ar {
		return
	}
	c.rc.Scratch().I64.Put(v.s)
}

// AllocF64 allocates an n-element zeroed float64 view mid-computation.
func (c *Ctx) AllocF64(n int64) F64 {
	if c.sc != nil {
		return F64{a: c.sc.AllocArray(n)}
	}
	s := c.rc.Scratch().F64.Get(n)
	clear(s)
	return F64{s: s, ar: true}
}

// FreeF64 releases a view obtained from AllocF64 (see FreeI64).
func (c *Ctx) FreeF64(v F64) {
	if !v.ar {
		return
	}
	c.rc.Scratch().F64.Put(v.s)
}

// AllocC128 allocates an n-element zeroed complex128 view mid-computation.
func (c *Ctx) AllocC128(n int64) C128 {
	if c.sc != nil {
		return C128{a: mem.CArray{Space: c.sc.Space(), Base: c.sc.Alloc(2 * n), N: n}}
	}
	s := c.rc.Scratch().C128.Get(n)
	clear(s)
	return C128{s: s, ar: true}
}

// ScratchC128 is AllocC128 without the real-backend zeroing.
func (c *Ctx) ScratchC128(n int64) C128 {
	if c.sc != nil {
		return C128{a: mem.CArray{Space: c.sc.Space(), Base: c.sc.Alloc(2 * n), N: n}}
	}
	return C128{s: c.rc.Scratch().C128.Get(n), ar: true}
}

// FreeC128 releases a view obtained from AllocC128/ScratchC128 (see
// FreeI64).
func (c *Ctx) FreeC128(v C128) {
	if !v.ar {
		return
	}
	c.rc.Scratch().C128.Put(v.s)
}

// I64 is a backend-neutral view of n int64 elements.  Get and Set go through
// a Ctx and are charged on the simulator; Load, Store and Words bypass the
// charge model for setup, verification and result extraction.
type I64 struct {
	s  []int64   // real backing (nil under the simulator)
	a  mem.Array // sim backing
	ar bool      // s is an original arena allocation, returnable via FreeI64
}

// Len returns the number of elements.
func (v I64) Len() int64 {
	if v.s != nil {
		return int64(len(v.s))
	}
	return v.a.Len()
}

// Slice returns the sub-view [lo, hi).
func (v I64) Slice(lo, hi int64) I64 {
	if v.s != nil {
		return I64{s: v.s[lo:hi]}
	}
	return I64{a: v.a.Slice(lo, hi)}
}

// Get reads element i (charged on the simulator).
func (v I64) Get(c *Ctx, i int64) int64 {
	if v.s != nil {
		return v.s[i]
	}
	return c.sc.R(v.a.Addr(i))
}

// Set writes element i (charged on the simulator).
func (v I64) Set(c *Ctx, i int64, x int64) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	c.sc.W(v.a.Addr(i), x)
}

// Raw returns the native backing slice on the real backend and nil under the
// simulator — the leaf-cutoff escape hatch: a leaf that got a non-nil Raw may
// run its inner loop directly on the slice, and must fall back to charged
// Get/Set otherwise.
func (v I64) Raw() []int64 { return v.s }

// Load reads element i without charging the simulation.
func (v I64) Load(i int64) int64 {
	if v.s != nil {
		return v.s[i]
	}
	return v.a.Get(i)
}

// Store writes element i without charging the simulation.
func (v I64) Store(i int64, x int64) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	v.a.Set(i, x)
}

// Words dumps the view as raw memory words, the canonical form the
// cross-backend equality gate compares byte for byte.
func (v I64) Words() []int64 {
	if v.s != nil {
		return append([]int64(nil), v.s...)
	}
	return v.a.CopyOut()
}

// F64 is a backend-neutral view of n float64 elements (one word each on the
// simulator, stored as IEEE-754 bits).
type F64 struct {
	s  []float64
	a  mem.Array
	ar bool // s is an original arena allocation, returnable via FreeF64
}

// Len returns the number of elements.
func (v F64) Len() int64 {
	if v.s != nil {
		return int64(len(v.s))
	}
	return v.a.Len()
}

// Slice returns the sub-view [lo, hi).
func (v F64) Slice(lo, hi int64) F64 {
	if v.s != nil {
		return F64{s: v.s[lo:hi]}
	}
	return F64{a: v.a.Slice(lo, hi)}
}

// Get reads element i (charged on the simulator).
func (v F64) Get(c *Ctx, i int64) float64 {
	if v.s != nil {
		return v.s[i]
	}
	return c.sc.RF(v.a.Addr(i))
}

// Set writes element i (charged on the simulator).
func (v F64) Set(c *Ctx, i int64, x float64) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	c.sc.WF(v.a.Addr(i), x)
}

// Raw returns the native backing slice on the real backend, nil on sim.
func (v F64) Raw() []float64 { return v.s }

// Load reads element i without charging the simulation.
func (v F64) Load(i int64) float64 {
	if v.s != nil {
		return v.s[i]
	}
	return v.a.GetF(i)
}

// Store writes element i without charging the simulation.
func (v F64) Store(i int64, x float64) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	v.a.SetF(i, x)
}

// Words dumps the view as raw memory words (IEEE-754 bit patterns), so
// cross-backend equality is exact bit equality, not an epsilon test.
func (v F64) Words() []int64 {
	out := make([]int64, v.Len())
	for i := range out {
		out[i] = int64(math.Float64bits(v.Load(int64(i))))
	}
	return out
}

// C128 is a backend-neutral view of n complex128 elements; element i
// occupies simulated words 2i (real part) and 2i+1 (imaginary part), so one
// Get or Set charges two word accesses — exactly the footprint the Table-1
// FFT analysis assumes.
type C128 struct {
	s  []complex128
	a  mem.CArray
	ar bool // s is an original arena allocation, returnable via FreeC128
}

// Len returns the number of complex elements.
func (v C128) Len() int64 {
	if v.s != nil {
		return int64(len(v.s))
	}
	return v.a.Len()
}

// Slice returns the sub-view [lo, hi).
func (v C128) Slice(lo, hi int64) C128 {
	if v.s != nil {
		return C128{s: v.s[lo:hi]}
	}
	// Validate like mem.Array.Slice does: an out-of-range sim slice must
	// panic exactly where the native slice expression would, not silently
	// alias the adjacent simulated allocation.
	if lo < 0 || hi < lo || hi > v.a.N {
		panic(fmt.Sprintf("fj: C128 slice [%d,%d) out of range [0,%d)", lo, hi, v.a.N))
	}
	return C128{a: mem.CArray{Space: v.a.Space, Base: v.a.Base + 2*lo, N: hi - lo}}
}

// Get reads element i (two charged word reads on the simulator).
func (v C128) Get(c *Ctx, i int64) complex128 {
	if v.s != nil {
		return v.s[i]
	}
	return complex(c.sc.RF(v.a.ReAddr(i)), c.sc.RF(v.a.ImAddr(i)))
}

// Set writes element i (two charged word writes on the simulator).
func (v C128) Set(c *Ctx, i int64, x complex128) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	c.sc.WF(v.a.ReAddr(i), real(x))
	c.sc.WF(v.a.ImAddr(i), imag(x))
}

// Raw returns the native backing slice on the real backend, nil on sim.
func (v C128) Raw() []complex128 { return v.s }

// Load reads element i without charging the simulation.
func (v C128) Load(i int64) complex128 {
	if v.s != nil {
		return v.s[i]
	}
	return v.a.Get(i)
}

// Store writes element i without charging the simulation.
func (v C128) Store(i int64, x complex128) {
	if v.s != nil {
		v.s[i] = x
		return
	}
	v.a.Set(i, x)
}

// Words dumps the view as raw memory words: 2i holds the real part's bits,
// 2i+1 the imaginary part's.
func (v C128) Words() []int64 {
	out := make([]int64, 2*v.Len())
	for i := int64(0); i < v.Len(); i++ {
		x := v.Load(i)
		out[2*i] = int64(math.Float64bits(real(x)))
		out[2*i+1] = int64(math.Float64bits(imag(x)))
	}
	return out
}
