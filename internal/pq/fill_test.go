package pq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"anna/internal/f16"
	"anna/internal/simd"
	"anna/internal/vecmath"
)

// fillReference is the LUT contract: one vecmath.L2Sq/Dot per entry on
// the materialised residual, in whatever dispatch mode is active.
func fillReference(q *Quantizer, qv, cv []float32, l2, hw bool) []float32 {
	rq := qv
	if cv != nil {
		rq = make([]float32, q.D)
		vecmath.Sub(rq, qv, cv)
	}
	want := make([]float32, q.M*q.Ks)
	for i := 0; i < q.M; i++ {
		sv := rq[i*q.Dsub : (i+1)*q.Dsub]
		for j := 0; j < q.Ks; j++ {
			if l2 {
				want[i*q.Ks+j] = -vecmath.L2Sq(sv, q.Codeword(i, j))
			} else {
				want[i*q.Ks+j] = vecmath.Dot(sv, q.Codeword(i, j))
			}
			if hw {
				want[i*q.Ks+j] = f16.Round(want[i*q.Ks+j])
			}
		}
	}
	return want
}

// TestFillDispatchMatrix runs FillIP, FillL2 and FillL2Residual against
// the per-entry contract in both dispatch modes, with and without the
// f16 rounding pass, and requires (a) every entry bit-identical to the
// contract of the same mode, (b) the LUT's planes, whenever it marks
// them current, to be exactly the planes of its final Values — in
// particular after RoundF16 — and (c)
// for Dsub < 16, where the scalar loop is the one reference, the two
// modes to agree with each other bit for bit.
func TestFillDispatchMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const m = 9
	for _, dsub := range []int{1, 2, 3, 4, 8, 16} {
		for _, ks := range []int{7, 16, 256} {
			q := fakeQuantizer(m, dsub, ks, rng)
			qv, cv := make([]float32, q.D), make([]float32, q.D)
			for i := range qv {
				qv[i], cv[i] = rng.Float32()*2-1, rng.Float32()*2-1
			}
			copy(qv[:dsub], q.Codeword(0, 1)) // an exact hit: -0 for L2
			for _, hw := range []bool{false, true} {
				fills := []struct {
					name string
					cv   []float32
					l2   bool
					run  func(l *LUT)
				}{
					{"ip", nil, false, func(l *LUT) { q.FillIP(l, qv) }},
					{"l2", nil, true, func(l *LUT) { q.FillL2(l, qv) }},
					{"l2resid", cv, true, func(l *LUT) { q.FillL2Residual(l, qv, cv, nil) }},
				}
				for _, f := range fills {
					label := fmt.Sprintf("Dsub%d_Ks%d_%s_hw%v", dsub, ks, f.name, hw)
					var byMode [2][]float32
					for mode, on := range []bool{false, true} {
						prev := simd.SetEnabled(on)
						want := fillReference(q, qv, f.cv, f.l2, hw)
						l := NewLUT(q)
						l.Bias = 7 // every fill must clear it
						f.run(l)
						if hw {
							l.RoundF16()
						}
						simd.SetEnabled(prev)

						if l.Bias != 0 {
							t.Fatalf("%s simd=%v: bias %v not cleared", label, on, l.Bias)
						}
						for i := range want {
							if math.Float32bits(l.Values[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s simd=%v entry %d: %v (%#x), contract %v (%#x)", label, on, i,
									l.Values[i], math.Float32bits(l.Values[i]), want[i], math.Float32bits(want[i]))
							}
						}
						// The mirror is kept (and marked current) exactly when a
						// kernel could read it: Ks == 16 under SIMD dispatch.
						if l.planesOK != (ks == 16 && on && simd.Available()) {
							t.Fatalf("%s simd=%v: planesOK = %v", label, on, l.planesOK)
						}
						if l.planesOK {
							wantPlanes := make([]byte, len(l.planes))
							simd.BuildNibblePlanes(wantPlanes, l.Values, ks, m)
							if !bytes.Equal(l.planes, wantPlanes) {
								t.Fatalf("%s: planes are not the planes of Values", label)
							}
						}
						byMode[mode] = l.Values
					}
					if dsub < fillKernelMaxDsub {
						for i := range byMode[0] {
							if math.Float32bits(byMode[0][i]) != math.Float32bits(byMode[1][i]) {
								t.Fatalf("%s entry %d: scalar %v, simd %v", label, i, byMode[0][i], byMode[1][i])
							}
						}
					}
				}
			}
		}
	}
}

func TestFillPanicsOnDimensionMismatch(t *testing.T) {
	q := fakeQuantizer(4, 2, 16, rand.New(rand.NewSource(1)))
	l := NewLUT(q)
	ok, short := make([]float32, q.D), make([]float32, q.D-1)
	for name, fn := range map[string]func(){
		"FillIP":                  func() { q.FillIP(l, short) },
		"FillL2":                  func() { q.FillL2(l, short) },
		"FillL2Residual query":    func() { q.FillL2Residual(l, short, ok, nil) },
		"FillL2Residual centroid": func() { q.FillL2Residual(l, ok, short, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
