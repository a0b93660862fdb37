//go:build amd64 && !noasm

package simd

// Assembly entry points. Every stub takes raw pointers (validated by the
// exported wrappers in generic.go) and is NOSPLIT-safe: no calls back
// into Go, no write barriers, bounded stack.

//go:noescape
func dotAsm(a, b *float32, n int) float32

//go:noescape
func l2sqAsm(a, b *float32, n int) float32

//go:noescape
func adcSums4Asm(planes *byte, packed *byte, codeBytes, groups int, sums *float32, n32 int, bias, thresh float32, mask *uint32)

//go:noescape
func fillLUTAsm(vals *float32, planes *byte, cbT, q, c *float32, m, ks, dsub int, l2 bool)

//go:noescape
func adcSums8Asm(vals *float32, packed *byte, codeBytes, m8 int, sums *float32, n8 int, bias float32)

//go:noescape
func argminD2Asm(data, norms *float32, n8 int, q *float32, outV *[8]float32, outI *[8]int32)

//go:noescape
func argminD4Asm(data, norms *float32, n8 int, q *float32, outV *[8]float32, outI *[8]int32)

//go:noescape
func argminD8Asm(data, norms *float32, n8 int, q *float32, outV *[8]float32, outI *[8]int32)

// The kernel dispatchers guard on `available` (not Enabled) so that the
// exported wrappers are safe to call on any CPU; Enabled() is the
// caller-facing policy switch, `available` is the hard capability check.

func dotKernel(a, b []float32) float32 {
	if available {
		return dotAsm(&a[0], &b[0], len(a))
	}
	return dotGeneric(a, b)
}

func l2sqKernel(a, b []float32) float32 {
	if available {
		return l2sqAsm(&a[0], &b[0], len(a))
	}
	return l2sqGeneric(a, b)
}

func adcSums4(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32, thresh float32, mask []uint32) {
	if available {
		adcSums4Asm(&planes[0], &packed[0], codeBytes, groups, &sums[0], len(sums), bias, thresh, &mask[0])
		return
	}
	adcSums4Generic(planes, bias, packed, codeBytes, groups, sums, thresh, mask)
}

func fillLUT(vals []float32, planes []byte, cbT, q, c []float32, m, ks, dsub int, l2 bool) {
	if !available {
		fillLUTGeneric(vals, planes, cbT, q, c, m, ks, dsub, l2)
		return
	}
	var pp *byte
	if planes != nil {
		pp = &planes[0]
	}
	var cp *float32
	if c != nil {
		cp = &c[0]
	}
	fillLUTAsm(&vals[0], pp, &cbT[0], &q[0], cp, m, ks, dsub, l2)
}

func adcSums8(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	if available {
		adcSums8Asm(&vals[0], &packed[0], codeBytes, m8, &sums[0], len(sums), bias)
		return
	}
	adcSums8Generic(vals, bias, packed, codeBytes, m8, sums)
}

func argminLanes(data, norms, q []float32, d, n8 int, outV *[8]float32, outI *[8]int32) {
	if !available {
		argminLanesGeneric(data, norms, q, d, n8, outV, outI)
		return
	}
	switch d {
	case 2:
		argminD2Asm(&data[0], &norms[0], n8, &q[0], outV, outI)
	case 4:
		argminD4Asm(&data[0], &norms[0], n8, &q[0], outV, outI)
	case 8:
		argminD8Asm(&data[0], &norms[0], n8, &q[0], outV, outI)
	default:
		panic("simd: argmin dimension must be 2, 4 or 8")
	}
}
