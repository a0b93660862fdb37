package pq

// Fused list-scan kernels: ADC over a whole inverted list of PACKED codes
// without unpacking into a scratch buffer. The reference path
// (Unpack + LUT.ADC + Selector.Push per vector) pays a function call, a
// bounds-checked copy and an interface-free but still O(M) div/mod loop
// per scanned vector; the kernels below walk the packed bytes directly
// with specialized inner loops for the two layouts ANNA supports (8-bit
// identifiers for k*=256, packed nibbles for k*=16), 4-way unrolled, and
// only touch the top-k selector when a score reaches its current threshold.
//
// Accumulation order is IDENTICAL to LUT.ADC (bias first, then sub-space
// 0..M-1, one sequential float32 add each), so the kernels are bit-exact
// against the reference in both the float32 and the HWF16 (round final
// sum to binary16) modes. The threshold gate only skips Push calls that
// Push itself would reject (score < heap minimum when full; a tie goes
// to Push, which settles it by ID), so selector contents are also
// bit-identical.

import (
	"math/bits"

	"anna/internal/f16"
	"anna/internal/simd"
	"anna/internal/topk"
)

// SIMD block-scan parameters. The assembly kernels in internal/simd
// score whole row blocks into a stack buffer; the Go side then walks the
// buffer in row order applying the f16 rounding, the threshold gate and
// the selector pushes — so selector contents stay bit-identical to the
// scalar path (same scores, same visit order).
const (
	// scanBlockRows is the row-block size: big enough to amortize the
	// kernel call, small enough that the sums stay comfortably on the
	// stack and in L1.
	scanBlockRows = 256
	// scanMaxGroups caps how many 4-byte code columns (8 sub-spaces
	// each) the 4-bit kernel covers, which bounds the padded remainder
	// buffer; sub-spaces beyond 8*scanMaxGroups are added by the scalar
	// tail. 8 groups = 64 sub-spaces, the largest M the paper's
	// configurations use.
	scanMaxGroups = 8
	// scanKernelRows4 is the 4-bit kernel's row granularity.
	scanKernelRows4 = 32
)

// useScanSIMD4 reports whether the packed-nibble list scan should take
// the assembly path. ks must be exactly 16: the plane tables pad
// entries >= ks with zeros, so a corrupt code that would panic the
// bounds-checked scalar path would silently score zero through the
// kernel — requiring the full codeword range removes that divergence
// (4-bit is the paper's k*=16 layout, so this costs nothing in
// practice). m >= 8 guarantees at least one full column group.
func useScanSIMD4(ks, m int) bool {
	return simd.Enabled() && ks == 16 && m >= 8
}

// useScanSIMD8 is the 8-bit gate: ks must be exactly 256 so that every
// possible code byte indexes in bounds (the kernel's LUT stride is
// hardwired to 256 entries and it does no per-element bounds checks).
func useScanSIMD8(ks, m int) bool {
	return simd.Enabled() && ks == 256 && m >= 8
}

// ScanADC scans an entire packed list, offering each surviving score to
// sel. ids[i] names the vector whose code starts at packed[i*codeBytes];
// nibble selects the 4-bit layout (two identifiers per byte, low nibble
// first). When hwF16 is true the final sum is rounded to binary16 exactly
// as LUT.ADCf16 does. Results are bit-identical to the reference
// Unpack+ADC+Push loop over the same list.
func (l *LUT) ScanADC(sel *topk.Selector, ids []int64, packed []byte, codeBytes int, nibble, hwF16 bool) {
	l.ScanADCSkip(sel, ids, packed, codeBytes, nibble, hwF16, nil)
}

// ScanADCSkip is ScanADC over a list with tombstones: rows whose ID is
// in dead are never offered. Every row is still scored — through the
// same kernels as a clean list — and dead is consulted only for rows
// that pass the threshold gate, so one tombstone costs a map lookup per
// candidate, not per vector. Skipping a row before or after scoring it
// leaves the selector the same, so results are bit-identical to
// filtering first.
func (l *LUT) ScanADCSkip(sel *topk.Selector, ids []int64, packed []byte, codeBytes int, nibble, hwF16 bool, dead map[int64]struct{}) {
	vals := l.Values
	bias := l.Bias
	ks := l.Ks
	m := l.M
	if nibble && useScanSIMD4(ks, m) && l.planesOK {
		l.scanADC4SIMD(sel, ids, packed, codeBytes, hwF16, dead)
		return
	}
	if !nibble && useScanSIMD8(ks, m) && len(ids) >= 8 {
		l.scanADC8SIMD(sel, ids, packed, codeBytes, hwF16, dead)
		return
	}
	thresh, full := sel.Threshold()
	if nibble {
		pairs := m / 2 // bytes holding two identifiers
		for i, id := range ids {
			row := packed[i*codeBytes : i*codeBytes+codeBytes]
			s := bias
			off := 0
			j := 0
			for ; j+2 <= pairs; j += 2 { // 4 sub-spaces per iteration
				b0, b1 := row[j], row[j+1]
				s += vals[off+int(b0&0x0F)]
				off += ks
				s += vals[off+int(b0>>4)]
				off += ks
				s += vals[off+int(b1&0x0F)]
				off += ks
				s += vals[off+int(b1>>4)]
				off += ks
			}
			for ; j < pairs; j++ {
				b := row[j]
				s += vals[off+int(b&0x0F)]
				off += ks
				s += vals[off+int(b>>4)]
				off += ks
			}
			if m&1 == 1 { // odd M: last byte carries one identifier
				s += vals[off+int(row[codeBytes-1]&0x0F)]
			}
			if hwF16 {
				s = f16.Round(s)
			}
			if full && s < thresh {
				continue
			}
			thresh, full = offer(sel, dead, id, s)
		}
		return
	}
	for i, id := range ids {
		row := packed[i*codeBytes : i*codeBytes+m]
		s := bias
		off := 0
		j := 0
		for ; j+4 <= m; j += 4 {
			c0, c1, c2, c3 := row[j], row[j+1], row[j+2], row[j+3]
			s += vals[off+int(c0)]
			off += ks
			s += vals[off+int(c1)]
			off += ks
			s += vals[off+int(c2)]
			off += ks
			s += vals[off+int(c3)]
			off += ks
		}
		for ; j < m; j++ {
			s += vals[off+int(row[j])]
			off += ks
		}
		if hwF16 {
			s = f16.Round(s)
		}
		if full && s < thresh {
			continue
		}
		thresh, full = offer(sel, dead, id, s)
	}
}

// offer pushes a row that passed the threshold gate, unless it is
// tombstoned, and returns the selector's refreshed threshold.
func offer(sel *topk.Selector, dead map[int64]struct{}, id int64, s float32) (thresh float32, full bool) {
	if len(dead) != 0 {
		if _, skip := dead[id]; skip {
			return sel.Threshold()
		}
	}
	sel.Push(id, s)
	return sel.Threshold()
}

// scanADC4SIMD is the assembly-backed packed-nibble list scan. Blocks of
// scanBlockRows rows go through the 32-lane PSHUFB kernel over the
// LUT's own planes, which returns bias plus the first 8*groups
// sub-spaces per row and one survivor bit per row, gated against the
// selector threshold at block entry. The Go side visits only set bits,
// in row order, re-checking each against the live threshold: the
// threshold only rises, so the kernel's stale gate can pass a row the
// scalar path would skip but never drop one it would push. The block
// remainder is scored through the same kernel on a zero-padded stack
// copy. Sums, masks and padding live on the stack — the scan allocates
// nothing.
func (l *LUT) scanADC4SIMD(sel *topk.Selector, ids []int64, packed []byte, codeBytes int, hwF16 bool, dead map[int64]struct{}) {
	groups := l.M / 8
	if groups > scanMaxGroups {
		groups = scanMaxGroups
	}
	mAsm := 8 * groups
	hasTail := mAsm < l.M
	var (
		sums [scanBlockRows]float32
		mask [scanBlockRows / scanKernelRows4]uint32
		pad  [scanKernelRows4 * 4 * scanMaxGroups]byte
	)
	thresh, full := sel.Threshold()
	for start := 0; start < len(ids); start += scanBlockRows {
		n := len(ids) - start
		if n > scanBlockRows {
			n = scanBlockRows
		}
		nAsm := n &^ (scanKernelRows4 - 1)
		block := packed[start*codeBytes:]
		simd.ADCSums4(l.planes, l.Bias, block, codeBytes, groups, sums[:nAsm], thresh, mask[:nAsm/scanKernelRows4])
		if rem := n - nAsm; rem > 0 {
			// Only a list's last block has a remainder, so the rows of
			// pad past rem are still zero: code 0, scored and ignored.
			w := 4 * groups
			for r := 0; r < rem; r++ {
				copy(pad[r*w:(r+1)*w], block[(nAsm+r)*codeBytes:])
			}
			simd.ADCSums4(l.planes, l.Bias, pad[:], w, groups,
				sums[nAsm:nAsm+scanKernelRows4], thresh, mask[nAsm/scanKernelRows4:nAsm/scanKernelRows4+1])
		}
		// The mask gates final scores only if the kernel's sums are
		// final (no scalar tail, no f16 rounding) and the selector was
		// full at block entry; otherwise every row is visited.
		gated := full && !hasTail && !hwF16
		for base := 0; base < n; base += scanKernelRows4 {
			live := ^uint32(0)
			if n-base < scanKernelRows4 {
				live = 1<<(n-base) - 1
			}
			if gated {
				live &= mask[base/scanKernelRows4]
			}
			for ; live != 0; live &= live - 1 {
				r := base + bits.TrailingZeros32(live)
				s := sums[r]
				if hasTail {
					s = l.adcTail4(block[r*codeBytes:r*codeBytes+codeBytes], mAsm, s)
				}
				if hwF16 {
					s = f16.Round(s)
				}
				if full && s < thresh {
					continue
				}
				thresh, full = offer(sel, dead, ids[start+r], s)
			}
		}
	}
}

// adcTail4 adds sub-spaces fromSub..M-1 of one packed-nibble row to s in
// ascending sub-space order — the scalar kernel's exact accumulation for
// the range the assembly did not cover. fromSub must be even.
func (l *LUT) adcTail4(row []byte, fromSub int, s float32) float32 {
	vals := l.Values
	ks := l.Ks
	m := l.M
	pairs := m / 2
	off := fromSub * ks
	for j := fromSub / 2; j < pairs; j++ {
		b := row[j]
		s += vals[off+int(b&0x0F)]
		off += ks
		s += vals[off+int(b>>4)]
		off += ks
	}
	if m&1 == 1 {
		s += vals[off+int(row[pairs]&0x0F)]
	}
	return s
}

// scanADC8SIMD is the assembly-backed 8-bit list scan (k*=256 layout).
// Structure mirrors scanADC4SIMD: the gather-free kernel covers the
// first m&^7 sub-spaces of 8-row groups, the scalar tail the rest.
func (l *LUT) scanADC8SIMD(sel *topk.Selector, ids []int64, packed []byte, codeBytes int, hwF16 bool, dead map[int64]struct{}) {
	m8 := l.M &^ 7
	hasTail := m8 < l.M
	var sums [scanBlockRows]float32
	thresh, full := sel.Threshold()
	for start := 0; start < len(ids); start += scanBlockRows {
		n := len(ids) - start
		if n > scanBlockRows {
			n = scanBlockRows
		}
		nAsm := n &^ 7
		block := packed[start*codeBytes:]
		simd.ADCSums8(l.Values, l.Bias, block, codeBytes, m8, sums[:nAsm])
		for r := 0; r < n; r++ {
			row := block[r*codeBytes : r*codeBytes+l.M]
			var s float32
			switch {
			case r >= nAsm:
				s = l.adcTail8(row, 0, l.Bias)
			case hasTail:
				s = l.adcTail8(row, m8, sums[r])
			default:
				s = sums[r]
			}
			if hwF16 {
				s = f16.Round(s)
			}
			if full && s < thresh {
				continue
			}
			thresh, full = offer(sel, dead, ids[start+r], s)
		}
	}
}

// adcTail8 adds sub-spaces fromSub..M-1 of one 8-bit row to s in
// ascending sub-space order.
func (l *LUT) adcTail8(row []byte, fromSub int, s float32) float32 {
	vals := l.Values
	ks := l.Ks
	off := fromSub * ks
	for j := fromSub; j < l.M; j++ {
		s += vals[off+int(row[j])]
		off += ks
	}
	return s
}
