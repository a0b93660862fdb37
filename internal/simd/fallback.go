//go:build !amd64 || noasm

package simd

import "runtime"

const goArch = runtime.GOARCH

var (
	available         = false
	unavailableReason = fallbackReason()
	featureString     = ""
)

func fallbackReason() string {
	if runtime.GOARCH == "amd64" {
		return "noasm build tag"
	}
	return ""
}

// On fallback builds the exported kernels run their pure-Go references,
// so a caller that forgets to gate on Enabled() is still correct — just
// not faster.

func adcSums4(planes []byte, bias float32, packed []byte, codeBytes, groups int, sums []float32, thresh float32, mask []uint32) {
	adcSums4Generic(planes, bias, packed, codeBytes, groups, sums, thresh, mask)
}

func fillLUT(vals []float32, planes []byte, cbT, q, c []float32, m, ks, dsub int, l2 bool) {
	fillLUTGeneric(vals, planes, cbT, q, c, m, ks, dsub, l2)
}

func adcSums8(vals []float32, bias float32, packed []byte, codeBytes, m8 int, sums []float32) {
	adcSums8Generic(vals, bias, packed, codeBytes, m8, sums)
}

func dotKernel(a, b []float32) float32 { return dotGeneric(a, b) }

func l2sqKernel(a, b []float32) float32 { return l2sqGeneric(a, b) }

func argminLanes(data, norms, q []float32, d, n8 int, outV *[8]float32, outI *[8]int32) {
	argminLanesGeneric(data, norms, q, d, n8, outV, outI)
}
