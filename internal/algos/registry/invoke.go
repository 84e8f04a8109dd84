package registry

import (
	"sort"

	"repro/internal/fj"
)

// Invocation-by-name: the service-facing slice of the catalog.  The
// experiments build their inputs in place through FJKernel.Setup; an
// Invocable instead accepts a caller-supplied payload — a flat []int64 word
// vector, the same canonical encoding the cross-backend equality gate
// compares — validates its shape *before* any kernel code touches it, and
// writes the kernel's output into a separate word vector.  Malformed
// payloads come back as errors (the serving layer maps them to 400), never
// as panics.
//
// Every fj kernel in the catalog is invocable, and every Invocable field is
// derived from the kernel's one catalog entry (fj.go): the same generator,
// run adapter and verifier the experiments use, with the entry's codec and
// shape (codec.go) giving the wire encoding.  The Payload field states each
// encoding; in brief:
//
//	sort, sortx  n i64 keys; output is the keys sorted ascending
//	scan         n i64 values; output[i] = sum of values[0..i]
//	gather       2n i64 words: n indices then n values
//	listrank     n i64 successor indices encoding a single chain
//	strassen     2n² i64 words: row-major A then B, n a power of two
//	matmul       2n² f64-bit words: row-major A then B, n a power of two
//	transpose    n² f64-bit words: one row-major square matrix
//	fft          2n words: re/im interleaved f64 bits, n a power of two
//
// Invocables run on the real backend only: the kernel's views share the
// payload's and the output's words (codec.go), and the serving layer
// schedules Run inside a fork-join invocation on its shared rt.Pool.

// Invocable is a kernel callable by name with a caller-supplied payload.
type Invocable struct {
	Name string
	Desc string
	// Payload documents the wire encoding (surfaced on /kernels).
	Payload string
	// Codec is the element codec the payload decodes through (codec.go);
	// Codec.RoundTrip is the byte-identity contract FuzzInvokeCodec pins.
	Codec *Codec
	// Validate checks the payload's shape (length, encoded-dimension and
	// index-range constraints).  A nil error guarantees Run will not panic
	// on this input; n = 0 and n = 1 degenerates are valid for every kernel.
	Validate func(in []int64) error
	// OutLen gives the output word count for a valid payload.
	OutLen func(in []int64) int64
	// Run executes the kernel on c, reading in and writing all of out
	// (len(out) = OutLen(in), zeroed as make returns it).  It must only be
	// called after Validate accepted in, with a real-backend Ctx.
	Run func(c *fj.Ctx, in, out []int64)
	// InWords gives the payload word count Gen would build for size n
	// (saturating instead of overflowing), so callers can enforce payload
	// caps before anything is allocated.
	InWords func(n int64) int64
	// Gen builds the seeded size-n payload the catalog's experiments use —
	// the serving layer's per-request-seeding path for clients that want a
	// workload without shipping one.
	Gen func(n int64, seed uint64) ([]int64, error)
	// Verify checks out against in from scratch (serially, independent of
	// the kernel) — the serving layer's output-verification hook.
	Verify func(in, out []int64) bool
}

// Invocables returns the service-callable catalog sorted by name.
func Invocables() []Invocable {
	out := make([]Invocable, len(catalog))
	for i, e := range catalog {
		out[i] = e.inv
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindInvocable returns the service-callable kernel with the given name.
func FindInvocable(name string) (Invocable, bool) {
	for _, e := range catalog {
		if e.inv.Name == name {
			return e.inv, true
		}
	}
	return Invocable{}, false
}
