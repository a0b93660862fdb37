package simd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The differential matrix runs every assembly kernel against its pure-Go
// reference on identical inputs. On builds without the assembly
// (noasm, non-amd64) the dispatchers already point at the references, so
// the comparisons are trivially true and the tests still exercise the
// reference paths. Bit-exact kernels (ADC sums, argmin) compare with ==
// on the raw float bits; the FMA reductions compare against an exact
// float64 reduction within the documented bound.

func randSlice(rng *rand.Rand, n int, scale float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return s
}

func TestDetectReporting(t *testing.T) {
	t.Logf("available=%v enabled=%v dispatch=%q features=%q reason=%q",
		Available(), Enabled(), Dispatch(), Features(), Reason())
	if Enabled() && Reason() != "" {
		t.Fatalf("enabled but reason = %q", Reason())
	}
	if !Available() && Enabled() {
		t.Fatal("enabled without available")
	}
	prev := SetEnabled(false)
	if Enabled() {
		t.Fatal("SetEnabled(false) did not take effect")
	}
	if Dispatch() != "scalar" {
		t.Fatalf("disabled dispatch = %q, want scalar", Dispatch())
	}
	SetEnabled(prev)
	if Enabled() != prev {
		t.Fatal("SetEnabled did not restore")
	}
}

// --- ADC 4-bit ---

func buildRandomLUT4(rng *rand.Rand, nSub, ks int) (planes []byte, vals []float32) {
	vals = make([]float32, nSub*ks)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	planes = make([]byte, nSub*planeBytes)
	BuildNibblePlanes(planes, vals, ks, nSub)
	return planes, vals
}

func packRandom4(rng *rand.Rand, n, codeBytes, ks int) []byte {
	packed := make([]byte, n*codeBytes)
	for i := range packed {
		lo := byte(rng.Intn(ks))
		hi := byte(rng.Intn(ks))
		packed[i] = lo | hi<<4
	}
	return packed
}

func TestBuildNibblePlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ks := range []int{1, 7, 16} {
		planes, vals := buildRandomLUT4(rng, 3, ks)
		for s := 0; s < 3; s++ {
			for k := 0; k < 16; k++ {
				var want uint32
				if k < ks {
					want = math.Float32bits(vals[s*ks+k])
				}
				base := s * planeBytes
				got := uint32(planes[base+k]) |
					uint32(planes[base+16+k])<<8 |
					uint32(planes[base+32+k])<<16 |
					uint32(planes[base+48+k])<<24
				if got != want {
					t.Fatalf("ks=%d sub=%d k=%d: plane bits %#x, want %#x", ks, s, k, got, want)
				}
			}
		}
	}
}

// diffADCSums4 runs kernel and reference on one input and requires
// identical sums (raw bits) and identical survivor masks.
func diffADCSums4(t *testing.T, label string, planes []byte, bias float32, packed []byte, codeBytes, groups, n int, thresh float32) []float32 {
	t.Helper()
	want, wantMask := make([]float32, n), make([]uint32, n/32)
	adcSums4Generic(planes, bias, packed, codeBytes, groups, want, thresh, wantMask)
	got, gotMask := make([]float32, n), make([]uint32, n/32)
	for i := range gotMask {
		gotMask[i] = 0xdeadbeef // the kernel must overwrite, not OR into, the mask
	}
	ADCSums4(planes, bias, packed, codeBytes, groups, got, thresh, gotMask)
	for r := range want {
		if math.Float32bits(want[r]) != math.Float32bits(got[r]) {
			t.Fatalf("%s row %d: asm %v (%#x) != ref %v (%#x)",
				label, r, got[r], math.Float32bits(got[r]), want[r], math.Float32bits(want[r]))
		}
	}
	for b := range wantMask {
		if wantMask[b] != gotMask[b] {
			t.Fatalf("%s rows %d..%d thresh %v: asm mask %#08x != ref %#08x",
				label, 32*b, 32*b+31, thresh, gotMask[b], wantMask[b])
		}
	}
	return want
}

func TestADCSums4Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		n, codeBytes, groups, ks int
	}{
		{32, 4, 1, 16},
		{32, 32, 8, 16},
		{256, 32, 8, 16},
		{64, 7, 1, 16},   // odd codeBytes: tail bytes ignored by the kernel
		{160, 13, 3, 16}, // unaligned stride, partial coverage
		{32, 32, 8, 9},   // ks < 16: upper plane entries are zero padding
		{1024, 24, 6, 16},
	} {
		planes, _ := buildRandomLUT4(rng, 8*tc.groups, tc.ks)
		packed := packRandom4(rng, tc.n, tc.codeBytes, tc.ks)
		bias := float32(rng.NormFloat64())
		label := fmt.Sprintf("%+v", tc)
		sums := diffADCSums4(t, label, planes, bias, packed, tc.codeBytes, tc.groups, tc.n, 0)
		// Gate edges: a threshold equal to an actual sum (< must keep
		// that row and drop the next smaller one), both infinities, NaN.
		for _, th := range []float32{sums[rng.Intn(tc.n)], float32(math.Inf(-1)), float32(math.Inf(1)), float32(math.NaN())} {
			diffADCSums4(t, label, planes, bias, packed, tc.codeBytes, tc.groups, tc.n, th)
		}
	}
}

// TestADCSums4MaskSemantics pins the gate itself against hand-built
// sums rather than against the reference: a one-sub-space-per-row
// table makes every sum a chosen constant.
func TestADCSums4MaskSemantics(t *testing.T) {
	nan := float32(math.NaN())
	entries := []float32{-2, -1, 0, 1, 2, nan, float32(math.Inf(1)), float32(math.Inf(-1))}
	vals := make([]float32, 8*16)
	copy(vals, entries) // sub-space 0; sub-spaces 1..7 stay all-zero
	planes := make([]byte, 8*planeBytes)
	BuildNibblePlanes(planes, vals, 16, 8)
	packed := make([]byte, 32*4)
	for r := 0; r < 32; r++ {
		packed[r*4] = byte(r % len(entries))
	}
	sums, mask := make([]float32, 32), make([]uint32, 1)
	ADCSums4(planes, 0, packed, 4, 1, sums, 0, mask)
	for r := 0; r < 32; r++ {
		e := entries[r%len(entries)]
		if math.Float32bits(sums[r]) != math.Float32bits(e+0) {
			t.Fatalf("row %d: sum %v, want %v", r, sums[r], e)
		}
		if got, want := mask[0]>>r&1 == 1, !(e < 0); got != want {
			t.Fatalf("row %d (sum %v, thresh 0): survivor bit %v, want %v", r, e, got, want)
		}
	}
}

// --- LUT fill ---

// fillScalar is FillLUT's contract written against the ROW-major
// codebook, as the sequential scalar loops pq falls back to compute it.
func fillScalar(cb, q, c []float32, m, ks, dsub int, l2 bool) []float32 {
	vals := make([]float32, m*ks)
	for i := 0; i < m; i++ {
		for j := 0; j < ks; j++ {
			w := cb[(i*ks+j)*dsub : (i*ks+j+1)*dsub]
			var s float32
			for d, wd := range w {
				x := q[i*dsub+d]
				if c != nil {
					x -= c[i*dsub+d]
				}
				if l2 {
					t := x - wd
					s += t * t
				} else {
					s += x * wd
				}
			}
			if l2 {
				s = -s
			}
			vals[i*ks+j] = s
		}
	}
	return vals
}

// diffFillLUT runs FillLUT (assembly where available) against the
// row-major scalar loops and, for ks=16, its planes against
// BuildNibblePlanes of the reference values.
func diffFillLUT(t *testing.T, cb, q, c []float32, m, ks, dsub int, l2 bool) {
	t.Helper()
	want := fillScalar(cb, q, c, m, ks, dsub, l2)
	cbT := TransposeCodebooks(cb, m, ks, dsub)
	got := make([]float32, m*ks)
	var planes, wantPlanes []byte
	if ks == 16 {
		planes, wantPlanes = make([]byte, m*planeBytes), make([]byte, m*planeBytes)
		BuildNibblePlanes(wantPlanes, want, ks, m)
	}
	FillLUT(got, planes, cbT, q, c, m, ks, dsub, l2)
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("m=%d ks=%d dsub=%d l2=%v resid=%v entry %d: kernel %v (%#x) != scalar %v (%#x)",
				m, ks, dsub, l2, c != nil, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if !bytes.Equal(planes, wantPlanes) {
		t.Fatalf("m=%d ks=%d dsub=%d l2=%v: planes differ from BuildNibblePlanes", m, ks, dsub, l2)
	}
}

func TestFillLUTDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, ks := range []int{16, 32, 256} {
		for _, dsub := range []int{1, 2, 3, 4, 8, 15, 16} {
			for _, m := range []int{1, 3, 32} {
				cb := randSlice(rng, m*ks*dsub, 1)
				q := randSlice(rng, m*dsub, 1)
				c := randSlice(rng, m*dsub, 1)
				// Exact hits: a zero distance must come out as -0, and
				// a -0 product must not survive the +0 start of Dot.
				copy(q[:dsub], cb[:dsub])
				if dsub == 1 {
					cb[1] = float32(math.Copysign(0, -1))
				}
				diffFillLUT(t, cb, q, nil, m, ks, dsub, true)
				diffFillLUT(t, cb, q, c, m, ks, dsub, true)
				diffFillLUT(t, cb, q, nil, m, ks, dsub, false)
			}
		}
	}
}

func TestFillLUTPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	ok := make([]float32, 64)
	mustPanic("ks not a multiple of 16", func() { FillLUT(ok, nil, ok, ok, nil, 1, 8, 1, true) })
	mustPanic("vals too short", func() { FillLUT(ok[:15], nil, ok, ok, nil, 1, 16, 1, true) })
	mustPanic("centroid with inner product", func() { FillLUT(ok, nil, ok, ok, ok, 1, 16, 1, false) })
	mustPanic("planes with ks=32", func() { FillLUT(ok, make([]byte, 64), ok, ok, nil, 1, 32, 1, true) })
	mustPanic("transpose size", func() { TransposeCodebooks(ok, 1, 16, 3) })
}

// --- ADC 8-bit ---

func TestADCSums8Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		n, codeBytes, m8 int
	}{
		{8, 8, 8},
		{8, 64, 64},
		{256, 64, 64},
		{64, 13, 8}, // odd stride, tail sub-spaces left to the caller
		{120, 37, 32},
		{1024, 48, 48},
	} {
		vals := make([]float32, tc.m8*256)
		for i := range vals {
			vals[i] = float32(rng.NormFloat64())
		}
		packed := make([]byte, tc.n*tc.codeBytes)
		rng.Read(packed) // any byte value is a valid ks=256 index
		bias := float32(rng.NormFloat64())

		want := make([]float32, tc.n)
		adcSums8Generic(vals, bias, packed, tc.codeBytes, tc.m8, want)
		got := make([]float32, tc.n)
		ADCSums8(vals, bias, packed, tc.codeBytes, tc.m8, got)

		for r := range want {
			if math.Float32bits(want[r]) != math.Float32bits(got[r]) {
				t.Fatalf("%+v row %d: asm %v != ref %v", tc, r, got[r], want[r])
			}
		}
	}
}

// --- FMA reductions ---

// dotExact is the float64 reference both implementations are measured
// against.
func dotExact(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func l2sqExact(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// dotBound is the documented tolerance for the FMA reductions: a small
// multiple of len * ulp * sum(|a_i*b_i|), covering both the assembly's
// fused rounding and the reference's reassociation.
func dotBound(a, b []float32) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(float64(a[i]) * float64(b[i]))
	}
	return 4 * float64(len(a)+8) * (1.0 / (1 << 24)) * (mag + 1e-30)
}

func TestDotDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 100, 128, 333, 1024} {
		a := randSlice(rng, n, 1)
		b := randSlice(rng, n, 1)
		exact := dotExact(a, b)
		bound := dotBound(a, b)
		for name, got := range map[string]float32{
			"kernel":  Dot(a, b),
			"generic": dotGeneric(a, b),
		} {
			if d := math.Abs(float64(got) - exact); d > bound {
				t.Fatalf("n=%d %s: |%v - %v| = %g > bound %g", n, name, got, exact, d, bound)
			}
		}
	}
	if Dot(nil, nil) != 0 {
		t.Fatal("Dot(nil, nil) != 0")
	}
}

// TestDotErrorBound pins the documented bound on adversarial
// (large-magnitude, cancelling) inputs, not just uniform noise.
func TestDotErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(512)
		a := randSlice(rng, n, 1e4)
		b := randSlice(rng, n, 1e4)
		// Force cancellation: mirror half the products negatively.
		for i := 0; i+1 < n; i += 2 {
			a[i+1] = a[i]
			b[i+1] = -b[i] * (1 + float32(rng.Float64())*1e-3)
		}
		exact := dotExact(a, b)
		bound := dotBound(a, b)
		if d := math.Abs(float64(Dot(a, b)) - exact); d > bound {
			t.Fatalf("trial %d n=%d: err %g > bound %g", trial, n, d, bound)
		}
	}
}

func TestL2SqDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 7, 8, 9, 16, 17, 31, 32, 64, 100, 128, 500} {
		a := randSlice(rng, n, 10)
		b := randSlice(rng, n, 10)
		exact := l2sqExact(a, b)
		// |d*d| sums: reuse dotBound on the difference vector.
		diff := make([]float32, n)
		for i := range diff {
			diff[i] = a[i] - b[i]
		}
		bound := dotBound(diff, diff)
		for name, got := range map[string]float32{
			"kernel":  L2Sq(a, b),
			"generic": l2sqGeneric(a, b),
		} {
			if d := math.Abs(float64(got) - exact); d > bound {
				t.Fatalf("n=%d %s: |%v - %v| = %g > bound %g", n, name, got, exact, d, bound)
			}
		}
	}
}

// --- argmin ---

// argminScalar reproduces vecmath's unrolled kernels: sequential scan,
// strict <, fixed pairwise dot association.
func argminScalar(data, norms, q []float32, d int) (int, float32) {
	best, bv := 0, float32(math.Inf(1))
	for j := 0; j < len(norms); j++ {
		s := pairTreeDot(data[j*d:(j+1)*d], q, d)
		if v := norms[j] - 2*s; v < bv {
			best, bv = j, v
		}
	}
	return best, bv
}

func TestArgMinNM2Diff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 4, 8} {
		for _, n := range []int{8, 9, 15, 16, 17, 64, 100, 256, 1000} {
			data := randSlice(rng, n*d, 1)
			norms := make([]float32, n)
			for j := 0; j < n; j++ {
				var s float32
				for k := 0; k < d; k++ {
					s += data[j*d+k] * data[j*d+k]
				}
				norms[j] = s
			}
			q := randSlice(rng, d, 1)
			wi, wv := argminScalar(data, norms, q, d)
			gi, gv := ArgMinNM2(data, norms, q, d)
			if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("d=%d n=%d: asm (%d, %v) != scalar (%d, %v)", d, n, gi, gv, wi, wv)
			}
		}
	}
}

// TestArgMinNM2Ties forces exact value ties across lanes and verifies the
// first (lowest-index) row wins, as in the scalar scan.
func TestArgMinNM2Ties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, d := range []int{2, 4, 8} {
		for _, n := range []int{16, 33, 64} {
			data := make([]float32, n*d) // all-zero rows: every v == norms[j]
			norms := make([]float32, n)
			for j := range norms {
				norms[j] = float32(1 + rng.Intn(3)) // many duplicate values
			}
			q := randSlice(rng, d, 1)
			wi, wv := argminScalar(data, norms, q, d)
			gi, gv := ArgMinNM2(data, norms, q, d)
			if gi != wi || gv != wv {
				t.Fatalf("d=%d n=%d: asm (%d, %v) != scalar (%d, %v)", d, n, gi, gv, wi, wv)
			}
		}
	}
}

// TestArgMinNM2NonFinite checks NaN/Inf rows: strict < means NaN
// candidates never win, matching the scalar kernels.
func TestArgMinNM2NonFinite(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	for _, d := range []int{2, 4, 8} {
		n := 24
		data := make([]float32, n*d)
		norms := make([]float32, n)
		for j := range norms {
			norms[j] = float32(j)
		}
		norms[3] = nan
		norms[5] = inf
		norms[7] = float32(math.Inf(-1))
		q := make([]float32, d)
		wi, wv := argminScalar(data, norms, q, d)
		gi, gv := ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("d=%d: asm (%d, %v) != scalar (%d, %v)", d, gi, gv, wi, wv)
		}

		// All-NaN: nothing beats +Inf prefill; scalar returns (0, +Inf).
		for j := range norms {
			norms[j] = nan
		}
		wi, wv = argminScalar(data, norms, q, d)
		gi, gv = ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("d=%d all-NaN: asm (%d, %v) != scalar (%d, %v)", d, gi, gv, wi, wv)
		}
	}
}

// --- scalar-forced paths (ANNA_NOSIMD / SetEnabled coverage) ---

func TestSetEnabledRoundTrip(t *testing.T) {
	if !Available() {
		t.Skip("no assembly on this build")
	}
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	// Kernels still dispatch on `available`, so results stay identical;
	// this pins that the policy switch doesn't change kernel results.
	rng := rand.New(rand.NewSource(9))
	a := randSlice(rng, 64, 1)
	b := randSlice(rng, 64, 1)
	off := Dot(a, b)
	SetEnabled(true)
	on := Dot(a, b)
	if math.Float32bits(off) != math.Float32bits(on) {
		t.Fatalf("Dot differs across SetEnabled: %v vs %v", off, on)
	}
}

// --- fuzzers (also run with -fuzz in CI's differential fuzz job) ---

func FuzzScanADCDiff(f *testing.F) {
	f.Add(uint16(16), uint8(8), uint8(1), []byte{0x21, 0x43, 0x65, 0x87})
	f.Add(uint16(64), uint8(13), uint8(3), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, nRaw uint16, cbRaw, gRaw uint8, seedBytes []byte) {
		n := (int(nRaw)%512 + 32) &^ 31
		groups := int(gRaw)%8 + 1
		codeBytes := 4*groups + int(cbRaw)%8
		var seed int64
		for _, b := range seedBytes {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))

		planes, _ := buildRandomLUT4(rng, 8*groups, 16)
		packed := make([]byte, n*codeBytes)
		rng.Read(packed)
		// Splice fuzz bytes in for adversarial nibble patterns.
		copy(packed, seedBytes)
		bias := float32(rng.NormFloat64())

		// Sums are N(0, 8*groups)-ish around bias; a threshold drawn
		// from the same spread splits the rows.
		thresh := bias + float32(rng.NormFloat64())*float32(math.Sqrt(float64(8*groups)))
		diffADCSums4(t, fmt.Sprintf("n=%d codeBytes=%d groups=%d", n, codeBytes, groups),
			planes, bias, packed, codeBytes, groups, n, thresh)

		// 8-bit kernel on the same packed block where it fits.
		m8 := 8 * (int(gRaw)%4 + 1)
		if m8 <= codeBytes {
			vals := make([]float32, m8*256)
			for i := range vals {
				vals[i] = float32(rng.NormFloat64())
			}
			n8 := n &^ 7
			want8 := make([]float32, n8)
			adcSums8Generic(vals, bias, packed, codeBytes, m8, want8)
			got8 := make([]float32, n8)
			ADCSums8(vals, bias, packed, codeBytes, m8, got8)
			for r := range want8 {
				if math.Float32bits(want8[r]) != math.Float32bits(got8[r]) {
					t.Fatalf("8-bit row %d: asm %v != ref %v", r, got8[r], want8[r])
				}
			}
		}
	})
}

func FuzzFillLUTDiff(f *testing.F) {
	f.Add(uint8(31), uint8(1), uint8(0), int64(1), []byte{0, 0, 0x80, 0x3f})
	f.Add(uint8(3), uint8(14), uint8(5), int64(7), []byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, mRaw, dRaw, mode uint8, seed int64, raw []byte) {
		m := int(mRaw)%40 + 1
		dsub := int(dRaw)%16 + 1
		ks := []int{16, 32, 256}[int(mode>>2)%3]
		rng := rand.New(rand.NewSource(seed))
		cb := randSlice(rng, m*ks*dsub, 4)
		q := randSlice(rng, m*dsub, 4)
		var c []float32
		if mode&2 != 0 {
			c = randSlice(rng, m*dsub, 4)
		}
		// Splice raw float bit patterns (infinities, NaNs, denormals,
		// signed zeros) into codebook and query.
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24)
			if v != v {
				continue // NaN payload propagation is not part of the contract
			}
			if i%8 == 0 {
				cb[(i/4)%len(cb)] = v
			} else {
				q[(i/4)%len(q)] = v
			}
		}
		l2 := mode&1 != 0
		if !l2 {
			c = nil
		}
		diffFillLUT(t, cb, q, c, m, ks, dsub, l2)
	})
}

func FuzzDotDiff(f *testing.F) {
	f.Add(uint16(17), int64(1))
	f.Add(uint16(256), int64(42))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw)%2048 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, n, 100)
		b := randSlice(rng, n, 100)

		if d := math.Abs(float64(Dot(a, b)) - dotExact(a, b)); d > dotBound(a, b) {
			t.Fatalf("Dot n=%d seed=%d: err %g > bound %g", n, seed, d, dotBound(a, b))
		}
		diff := make([]float32, n)
		for i := range diff {
			diff[i] = a[i] - b[i]
		}
		if d := math.Abs(float64(L2Sq(a, b)) - l2sqExact(a, b)); d > dotBound(diff, diff) {
			t.Fatalf("L2Sq n=%d seed=%d: err %g > bound %g", n, seed, d, dotBound(diff, diff))
		}

		// Argmin differential ride-along: d cycles through 2/4/8.
		d := []int{2, 4, 8}[n%3]
		rows := n%97 + 8
		data := randSlice(rng, rows*d, 1)
		norms := randSlice(rng, rows, 2)
		q := randSlice(rng, d, 1)
		wi, wv := argminScalar(data, norms, q, d)
		gi, gv := ArgMinNM2(data, norms, q, d)
		if gi != wi || math.Float32bits(gv) != math.Float32bits(wv) {
			t.Fatalf("argmin d=%d rows=%d: asm (%d, %v) != scalar (%d, %v)", d, rows, gi, gv, wi, wv)
		}
	})
}

// --- benchmarks ---

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randSlice(rng, 128, 1)
	y := randSlice(rng, 128, 1)
	b.SetBytes(128 * 4 * 2)
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkADCSums4(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const n, groups = 1024, 8
	codeBytes := 4 * groups
	planes, _ := buildRandomLUT4(rng, 8*groups, 16)
	packed := packRandom4(rng, n, codeBytes, 16)
	sums, mask := make([]float32, n), make([]uint32, n/32)
	b.SetBytes(int64(n * codeBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ADCSums4(planes, 0, packed, codeBytes, groups, sums, 0, mask)
	}
}

func BenchmarkFillLUT(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	const m, ks, dsub = 32, 16, 2
	cbT := TransposeCodebooks(randSlice(rng, m*ks*dsub, 1), m, ks, dsub)
	q, c := randSlice(rng, m*dsub, 1), randSlice(rng, m*dsub, 1)
	vals, planes := make([]float32, m*ks), make([]byte, m*planeBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FillLUT(vals, planes, cbT, q, c, m, ks, dsub, true)
	}
}

func BenchmarkADCSums8(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const n, m8 = 1024, 32
	vals := make([]float32, m8*256)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	packed := make([]byte, n*m8)
	rng.Read(packed)
	sums := make([]float32, n)
	b.SetBytes(int64(n * m8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ADCSums8(vals, 0, packed, m8, m8, sums)
	}
}

func BenchmarkArgMinNM2(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const n, d = 256, 8
	data := randSlice(rng, n*d, 1)
	norms := randSlice(rng, n, 2)
	q := randSlice(rng, d, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ArgMinNM2(data, norms, q, d)
	}
}
