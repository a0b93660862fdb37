package pq

import (
	"fmt"
	"math/rand"
	"testing"

	"anna/internal/f16"
	"anna/internal/topk"
	"anna/internal/vecmath"
)

// fakeQuantizer builds an untrained quantizer with random codebooks —
// kernel tests only need a consistent layout, not a good one.
func fakeQuantizer(m, dsub, ks int, rng *rand.Rand) *Quantizer {
	q := &Quantizer{
		D: m * dsub, M: m, Ks: ks, Dsub: dsub,
		Codebooks: vecmath.NewMatrix(m*ks, dsub),
	}
	for i := range q.Codebooks.Data {
		q.Codebooks.Data[i] = rng.Float32()*2 - 1
	}
	return q
}

// packRandomList encodes n random code vectors and returns (ids, packed).
func packRandomList(q *Quantizer, n int, rng *rand.Rand) ([]int64, []byte) {
	ids := make([]int64, n)
	var packed []byte
	codes := make([]byte, q.M)
	for i := range ids {
		ids[i] = int64(1000 + i)
		for j := range codes {
			codes[j] = byte(rng.Intn(q.Ks))
		}
		packed = q.Pack(packed, codes)
	}
	return ids, packed
}

// TestScanADCBitExact checks the fused kernel against the reference
// Unpack+ADC+Push loop across code widths (including odd M, which
// exercises the nibble tail) and both rounding modes.
func TestScanADCBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, ks := range []int{16, 256} {
		for _, m := range []int{7, 8, 64} {
			for _, hw := range []bool{false, true} {
				t.Run(fmt.Sprintf("Ks%d_M%d_hw%v", ks, m, hw), func(t *testing.T) {
					q := fakeQuantizer(m, 4, ks, rng)
					ids, packed := packRandomList(q, 300, rng)
					l := NewLUT(q)
					for i := range l.Values {
						l.Values[i] = rng.Float32()*2 - 1
					}
					l.SyncPlanes()
					l.Bias = rng.Float32()

					fused := topk.NewSelector(10)
					l.ScanADC(fused, ids, packed, q.CodeBytes(), q.CodeBits() == 4, hw)

					ref := topk.NewSelector(10)
					codeBuf := make([]byte, q.M)
					cb := q.CodeBytes()
					for i, id := range ids {
						q.Unpack(codeBuf, packed[i*cb:])
						s := l.ADC(codeBuf)
						if hw {
							s = f16.Round(s)
						}
						ref.Push(id, s)
					}

					a, b := fused.Results(), ref.Results()
					if len(a) != len(b) {
						t.Fatalf("result counts %d vs %d", len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("rank %d: fused %+v ref %+v", i, a[i], b[i])
						}
					}
				})
			}
		}
	}
}

// TestScanADCThresholdGate verifies the pruning invariant directly at the
// kernel level: a gated scan into a k-selector returns exactly the top-k
// of an ungated scan that retains every score.
func TestScanADCThresholdGate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := fakeQuantizer(16, 4, 16, rng)
	ids, packed := packRandomList(q, 500, rng)
	l := NewLUT(q)
	for i := range l.Values {
		l.Values[i] = rng.Float32()*4 - 2
	}
	l.SyncPlanes()
	for _, k := range []int{1, 7, 100, 500, 600} {
		gated := topk.NewSelector(k)
		l.ScanADC(gated, ids, packed, q.CodeBytes(), true, false)
		all := topk.NewSelector(len(ids))
		l.ScanADC(all, ids, packed, q.CodeBytes(), true, false)
		want := all.Results()
		if k < len(want) {
			want = want[:k]
		}
		got := gated.Results()
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("k=%d rank %d: %+v vs %+v", k, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkScanADC8(b *testing.B) { benchScanADC(b, 256, 64) }
func BenchmarkScanADC4(b *testing.B) { benchScanADC(b, 16, 64) }

func benchScanADC(b *testing.B, ks, m int) {
	rng := rand.New(rand.NewSource(1))
	q := fakeQuantizer(m, 2, ks, rng)
	ids, packed := packRandomList(q, 1000, rng)
	l := NewLUT(q)
	for i := range l.Values {
		l.Values[i] = rng.Float32()
	}
	l.SyncPlanes()
	sel := topk.NewSelector(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ScanADC(sel, ids, packed, q.CodeBytes(), q.CodeBits() == 4, false)
	}
}
