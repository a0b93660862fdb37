package simd

import "math"

// Pure-Go references for every kernel. They define the exact semantics
// the assembly must reproduce (bit-exact for the ADC-sum and argmin
// kernels, within the documented error bound for the FMA reductions) and
// they ARE the implementation on fallback builds. The differential test
// matrix and the fuzzers run assembly and reference on identical inputs.

// planeBytes is the byte-plane table size of one 16-entry sub-space LUT:
// 4 planes of 16 bytes, plane p holding byte p of each float32 entry.
const planeBytes = 64

// BuildNibblePlanes fills planes (nSub*64 bytes) with the byte-plane
// transpose of the first nSub sub-space tables of vals (stride ks
// entries, ks <= 16). Entries k >= ks are left zero; 4-bit codes can
// never select them when ks is the quantizer's codeword count. The
// transposed layout is what lets the scan kernel look a float32 up with
// four in-register PSHUFBs instead of a memory gather.
func BuildNibblePlanes(planes []byte, vals []float32, ks, nSub int) {
	if ks <= 0 || ks > 16 {
		panic("simd: BuildNibblePlanes ks out of range")
	}
	if len(planes) < nSub*planeBytes || len(vals) < nSub*ks {
		panic("simd: BuildNibblePlanes buffer too small")
	}
	for s := 0; s < nSub; s++ {
		base := s * planeBytes
		row := vals[s*ks : s*ks+ks]
		for k, v := range row {
			bits := math.Float32bits(v)
			planes[base+k] = byte(bits)
			planes[base+16+k] = byte(bits >> 8)
			planes[base+32+k] = byte(bits >> 16)
			planes[base+48+k] = byte(bits >> 24)
		}
	}
}

// ADCSums4 computes, for each of the len(sums) packed rows, the partial
// ADC sum over the first 8*groups sub-spaces of the 4-bit code layout:
//
//	sums[r] = bias + Σ_{s=0}^{8g-1} value(s, nibble(r, s))
//
// with the additions performed in ascending sub-space order per row —
// bit-identical to the scalar kernel in pq. nibble(r, s) is the low
// (even s) or high (odd s) nibble of packed[r*codeBytes + s/2]; values
// come from the plane table built by BuildNibblePlanes. len(sums) must
// be a multiple of 32 and groups counts 4-byte code columns (8
// sub-spaces each).
//
// It also gates the rows against thresh: bit r%32 of mask[r/32] is set
// unless sums[r] < thresh (so a sum equal to thresh survives — the
// selector breaks that tie by ID — and so does a NaN sum, as both do the
// scalar `s < thresh` skip test). len(mask) must be len(sums)/32. The
// gate is on the partial sum, so it is a valid pre-filter of final
// scores only when the kernel covers every sub-space and nothing
// rounds the sum afterwards; callers that cannot promise that ignore
// the mask.
func ADCSums4(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32, thresh float32, mask []uint32) {
	n := len(sums)
	if n == 0 {
		return
	}
	if n%32 != 0 {
		panic("simd: ADCSums4 row count not a multiple of 32")
	}
	if len(mask) != n/32 {
		panic("simd: ADCSums4 mask length mismatch")
	}
	if groups <= 0 || 4*groups > codeBytes {
		panic("simd: ADCSums4 groups out of range")
	}
	if len(packed) < (n-1)*codeBytes+4*groups {
		panic("simd: ADCSums4 packed too short")
	}
	if len(planes) < 8*groups*planeBytes {
		panic("simd: ADCSums4 planes too short")
	}
	adcSums4(planes, bias, packed, codeBytes, groups, sums, thresh, mask)
}

func adcSums4Generic(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32, thresh float32, mask []uint32) {
	nSub := 8 * groups
	for i := range mask {
		mask[i] = 0
	}
	for r := range sums {
		row := packed[r*codeBytes:]
		s := bias
		for ss := 0; ss < nSub; ss++ {
			b := row[ss/2]
			var idx int
			if ss&1 == 0 {
				idx = int(b & 0x0F)
			} else {
				idx = int(b >> 4)
			}
			base := ss * planeBytes
			bits := uint32(planes[base+idx]) |
				uint32(planes[base+16+idx])<<8 |
				uint32(planes[base+32+idx])<<16 |
				uint32(planes[base+48+idx])<<24
			s += math.Float32frombits(bits)
		}
		sums[r] = s
		if !(s < thresh) {
			mask[r/32] |= 1 << (r % 32)
		}
	}
}

// fillBlock is the codeword granularity of FillLUT: one YMM pair.
const fillBlock = 16

// TransposeCodebooks returns the dimension-major copy of m codebooks of
// ks codewords by dsub dimensions that FillLUT reads: element
// (i*dsub+d)*ks+j is dimension d of codeword j of sub-space i, where
// cb holds it at (i*ks+j)*dsub+d. Sixteen consecutive codewords of one
// dimension are then one contiguous run — a lane-per-codeword load.
func TransposeCodebooks(cb []float32, m, ks, dsub int) []float32 {
	if len(cb) != m*ks*dsub {
		panic("simd: TransposeCodebooks size mismatch")
	}
	t := make([]float32, len(cb))
	for i := 0; i < m; i++ {
		for j := 0; j < ks; j++ {
			for d := 0; d < dsub; d++ {
				t[(i*dsub+d)*ks+j] = cb[(i*ks+j)*dsub+d]
			}
		}
	}
	return t
}

// FillLUT builds the m lookup tables of one query against transposed
// codebooks cbT (see TransposeCodebooks), ks entries each, into vals
// (stride ks):
//
//	l2:  vals[i*ks+j] = -Σ_d ((q[i*dsub+d] - c[i*dsub+d]) - cbT[(i*dsub+d)*ks+j])²
//	!l2: vals[i*ks+j] =  Σ_d q[i*dsub+d] * cbT[(i*dsub+d)*ks+j]
//
// c is the cluster centroid of an L2 residual query; nil means no
// subtraction (and it must be nil for inner product). Each lane owns
// one codeword and runs the sum from +0 in ascending d with separately
// rounded subtract, multiply and add — no FMA — so every entry is
// bit-identical to the sequential scalar loops -L2Sq(q-c, codeword)
// and Dot(q, codeword). ks must be a multiple of 16.
//
// When planes is non-nil, ks must be 16 and planes receives the byte
// planes of the finished tables, exactly as BuildNibblePlanes(planes,
// vals, 16, m) would write them.
func FillLUT(vals []float32, planes []byte, cbT, q, c []float32, m, ks, dsub int, l2 bool) {
	if m <= 0 || dsub <= 0 || ks <= 0 || ks%fillBlock != 0 {
		panic("simd: FillLUT shape out of range")
	}
	if len(vals) < m*ks || len(cbT) < m*ks*dsub || len(q) < m*dsub {
		panic("simd: FillLUT buffer too small")
	}
	if c != nil && (!l2 || len(c) < m*dsub) {
		panic("simd: FillLUT centroid needs l2 and m*dsub values")
	}
	if planes != nil && (ks != 16 || len(planes) < m*planeBytes) {
		panic("simd: FillLUT planes need ks=16 and m*64 bytes")
	}
	fillLUT(vals, planes, cbT, q, c, m, ks, dsub, l2)
}

func fillLUTGeneric(vals []float32, planes []byte, cbT, q, c []float32, m, ks, dsub int, l2 bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < ks; j++ {
			var s float32
			for d := 0; d < dsub; d++ {
				x := q[i*dsub+d]
				if c != nil {
					x -= c[i*dsub+d]
				}
				w := cbT[(i*dsub+d)*ks+j]
				if l2 {
					t := x - w
					s += t * t
				} else {
					s += x * w
				}
			}
			if l2 {
				s = -s
			}
			vals[i*ks+j] = s
		}
	}
	if planes != nil {
		BuildNibblePlanes(planes, vals, ks, m)
	}
}

// ADCSums8 is ADCSums4 for the 8-bit code layout with ks=256 (one full
// byte per sub-space identifier, LUT stride 256 entries):
//
//	sums[r] = bias + Σ_{j=0}^{m8-1} vals[j*256 + packed[r*codeBytes+j]]
//
// additions in ascending sub-space order per row, bit-identical to the
// scalar kernel. len(sums) must be a multiple of 8 and m8 a multiple of
// 8. The fixed 256-entry stride is what makes any code byte a valid
// index, so the kernel needs no per-element bounds logic.
func ADCSums8(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	n := len(sums)
	if n == 0 {
		return
	}
	if n%8 != 0 {
		panic("simd: ADCSums8 row count not a multiple of 8")
	}
	if m8 <= 0 || m8%8 != 0 || m8 > codeBytes {
		panic("simd: ADCSums8 m8 out of range")
	}
	if len(packed) < (n-1)*codeBytes+m8 {
		panic("simd: ADCSums8 packed too short")
	}
	if len(vals) < m8*256 {
		panic("simd: ADCSums8 vals too short")
	}
	adcSums8(vals, bias, packed, codeBytes, m8, sums)
}

func adcSums8Generic(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	for r := range sums {
		row := packed[r*codeBytes:]
		s := bias
		off := 0
		for j := 0; j < m8; j++ {
			s += vals[off+int(row[j])]
			off += 256
		}
		sums[r] = s
	}
}

// Dot returns the inner product of a and b using the FMA kernel when the
// assembly is compiled in (regardless of Enabled — callers gate). The
// reduction splits the input into two 8-lane accumulators over 16-element
// strides, adds them lane-wise, reduces the 8 lanes pairwise
// ((l0+l4)+(l2+l6) style tree) and folds the tail elements in serially.
// Because of the reassociation and the fused multiply-adds the result is
// NOT bit-identical to a sequential scalar loop; both stay within the
// error bound pinned by TestDotErrorBound (on the order of
// len(a)*2^-24*Σ|a_i*b_i| relative to an exact float64 reduction).
// It panics if the lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: Dot length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return dotKernel(a, b)
}

// dotGeneric mirrors the assembly's lane structure (two 8-lane
// accumulators, pairwise lane reduction, serial tail) without FMA; it is
// the fallback-build implementation and the shape the differential tests
// compare the assembly against.
func dotGeneric(a, b []float32) float32 {
	var acc0, acc1 [8]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for l := 0; l < 8; l++ {
			acc0[l] += a[i+l] * b[i+l]
			acc1[l] += a[i+8+l] * b[i+8+l]
		}
	}
	if i+8 <= len(a) {
		for l := 0; l < 8; l++ {
			acc0[l] += a[i+l] * b[i+l]
		}
		i += 8
	}
	s := laneReduce(&acc0, &acc1)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// laneReduce folds acc0+acc1 with the exact tree the assembly uses:
// lane-wise add, fold high half onto low, then (x0+x2)+(x1+x3).
func laneReduce(acc0, acc1 *[8]float32) float32 {
	var acc [8]float32
	for l := 0; l < 8; l++ {
		acc[l] = acc0[l] + acc1[l]
	}
	var x [4]float32
	for l := 0; l < 4; l++ {
		x[l] = acc[l] + acc[l+4]
	}
	return (x[0] + x[2]) + (x[1] + x[3])
}

// L2Sq returns the squared L2 distance of a and b with the same
// accumulator structure (d = a-b, acc += d*d fused) and tolerance class
// as Dot. It panics if the lengths differ.
func L2Sq(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("simd: L2Sq length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	return l2sqKernel(a, b)
}

func l2sqGeneric(a, b []float32) float32 {
	var acc0, acc1 [8]float32
	i := 0
	for ; i+16 <= len(a); i += 16 {
		for l := 0; l < 8; l++ {
			d0 := a[i+l] - b[i+l]
			acc0[l] += d0 * d0
			d1 := a[i+8+l] - b[i+8+l]
			acc1[l] += d1 * d1
		}
	}
	if i+8 <= len(a) {
		for l := 0; l < 8; l++ {
			d := a[i+l] - b[i+l]
			acc0[l] += d * d
		}
		i += 8
	}
	s := laneReduce(&acc0, &acc1)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// lanePerm maps SIMD lane l to the row offset it owns within each
// 8-row block of the argmin kernels. The horizontal-add trees of the
// different dimensions emit rows in different lane orders; the table is
// part of the kernel contract and shared by assembly, reference and
// tests.
func lanePerm(d int) *[8]int32 {
	switch d {
	case 2:
		return &permD2
	case 4:
		return &permD4
	case 8:
		return &permD8
	}
	panic("simd: argmin dimension must be 2, 4 or 8")
}

var (
	permD2 = [8]int32{0, 1, 4, 5, 2, 3, 6, 7}
	permD4 = [8]int32{0, 2, 4, 6, 1, 3, 5, 7}
	permD8 = [8]int32{0, 1, 2, 3, 4, 5, 6, 7}
)

// pairTreeDot is the fixed-association pairwise dot product of the
// small-dimension argmin kernels — identical to the unrolled scalar
// kernels in vecmath (no FMA, so the SIMD lanes reproduce it exactly).
func pairTreeDot(row, q []float32, d int) float32 {
	switch d {
	case 2:
		return q[0]*row[0] + q[1]*row[1]
	case 4:
		return (q[0]*row[0] + q[1]*row[1]) + (q[2]*row[2] + q[3]*row[3])
	case 8:
		return ((q[0]*row[0] + q[1]*row[1]) + (q[2]*row[2] + q[3]*row[3])) +
			((q[4]*row[4] + q[5]*row[5]) + (q[6]*row[6] + q[7]*row[7]))
	}
	panic("simd: argmin dimension must be 2, 4 or 8")
}

func argminLanesGeneric(data, norms, q []float32, d, n8 int, outV *[8]float32, outI *[8]int32) {
	perm := lanePerm(d)
	for base := 0; base < n8; base += 8 {
		for l := 0; l < 8; l++ {
			j := base + int(perm[l])
			s := pairTreeDot(data[j*d:(j+1)*d], q, d)
			v := norms[j] - 2*s
			if v < outV[l] {
				outV[l] = v
				outI[l] = int32(j)
			}
		}
	}
}

// ArgMinNM2 returns the index j minimizing norms[j] - 2*dot(q, row_j)
// over the len(norms) rows of dim-d row-major data, and that minimal
// value — bit-identical (value AND index, ties to the lowest index) to
// the unrolled scalar kernels in vecmath for d in {2, 4, 8}. Eight SIMD
// lanes each own every eighth row and perform the exact scalar pairwise
// arithmetic, so no tolerance is needed; the lane results merge by
// (value, index) order. len(norms) must be at least 8.
func ArgMinNM2(data, norms, q []float32, d int) (int, float32) {
	n := len(norms)
	if n < 8 {
		panic("simd: ArgMinNM2 needs at least 8 rows")
	}
	if len(q) != d || len(data) < n*d {
		panic("simd: ArgMinNM2 dimension mismatch")
	}
	n8 := n &^ 7
	inf := float32(math.Inf(1))
	outV := [8]float32{inf, inf, inf, inf, inf, inf, inf, inf}
	var outI [8]int32
	argminLanes(data, norms, q, d, n8, &outV, &outI)
	// Merge: smallest value wins; on exactly-equal values the smallest
	// row index wins, which reproduces the scalar first-strict-min scan.
	best, bv := int(outI[0]), outV[0]
	for l := 1; l < 8; l++ {
		if outV[l] < bv || (outV[l] == bv && outI[l] < int32(best)) {
			best, bv = int(outI[l]), outV[l]
		}
	}
	for j := n8; j < n; j++ {
		s := pairTreeDot(data[j*d:(j+1)*d], q, d)
		if v := norms[j] - 2*s; v < bv {
			best, bv = j, v
		}
	}
	return best, bv
}
