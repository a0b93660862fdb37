// Package simd holds the hand-written assembly kernels behind ANNA's
// hot loops — LUT construction and the ADC list scan on the serving
// path, the dot/argmin primitives on the build path — together with the
// runtime CPU-feature dispatch that decides, once at init, whether they
// may run at all.
//
// Design rules (see docs/ARCHITECTURE.md §"SIMD kernels"):
//
//   - Every kernel has a pure-Go reference in this package (generic.go)
//     and the packages that call the kernels (pq, vecmath) keep their own
//     scalar implementations as the canonical semantics. The assembly is
//     an implementation detail that must never change results beyond the
//     documented tolerance class of the kernel.
//
//   - Bit-exact kernels (the LUT fill, the ADC scan sums and the
//     small-dimension argmin kernels) vectorize ACROSS vectors: each SIMD
//     lane owns one vector (table entry, row, codeword) and performs its
//     float32 operations in exactly the scalar order, so the result is
//     bit-identical to the reference for every input. No FMA, no
//     reassociation.
//
//   - Tolerance kernels (Dot, L2Sq) use FMA and an 8-lane split
//     accumulator, which reassociates the reduction. They are NOT
//     bit-identical to the scalar loop; the differential tests pin both
//     implementations to a documented error bound against a float64
//     reference (see DotErrorBound) and callers opt in knowing that.
//
//   - Dispatch is all-or-nothing and decided once: amd64 with AVX2+FMA
//     (and OS-enabled YMM state) runs the assembly, everything else runs
//     the scalar paths. The `noasm` build tag removes the assembly at
//     compile time; the ANNA_NOSIMD environment variable (any non-empty
//     value) forces the scalar path at run time on a binary that has it.
package simd

import "os"

// enabled is the single dispatch switch, set once by init and flipped
// only by SetEnabled (a test hook). Callers read it through Enabled()
// before every kernel call; it is a plain bool because after init it is
// only written by serial test code, never concurrently with searches.
var enabled bool

// reason explains a scalar dispatch ("" when the assembly is active).
var reason string

func init() {
	if !available {
		enabled = false
		if unavailableReason != "" {
			reason = unavailableReason
		} else {
			reason = "no assembly for " + goArch
		}
		return
	}
	if os.Getenv("ANNA_NOSIMD") != "" {
		enabled = false
		reason = "ANNA_NOSIMD set"
		return
	}
	enabled = true
}

// Available reports whether this binary contains assembly kernels the
// current CPU can execute (independent of the ANNA_NOSIMD override).
func Available() bool { return available }

// Enabled reports whether kernel calls will take the assembly path.
// Packages gate every kernel call on this.
func Enabled() bool { return enabled }

// SetEnabled flips the dispatch and returns the previous value. Enabling
// on a machine without kernel support is a no-op (stays false). It exists
// for differential tests and benchmarks that must run both paths in one
// process; it is not safe to call concurrently with running searches.
func SetEnabled(v bool) bool {
	prev := enabled
	if v && !available {
		return prev
	}
	enabled = v
	return prev
}

// Features returns the detected CPU feature flags relevant to the
// kernels (e.g. "avx2 fma avx512f"), or "" when detection found none.
func Features() string { return featureString }

// Dispatch names the active kernel set: "avx2" or "scalar".
func Dispatch() string {
	if enabled {
		return "avx2"
	}
	return "scalar"
}

// Reason explains a scalar Dispatch(): "ANNA_NOSIMD set", "noasm build
// tag", "cpu lacks avx2+fma", or "no assembly for <arch>". Empty when
// the assembly path is active.
func Reason() string {
	if enabled {
		return ""
	}
	return reason
}
