// Package pq implements product quantization (Section II-B of the paper):
// codebook training, vector encoding into sub-space codeword identifiers,
// packed code storage (4-bit codes for k*=16, 8-bit for k*=256), lookup
// table (LUT) construction for both inner-product and L2 similarity, and
// LUT-based approximate similarity computation ("asymmetric distance
// computation").
//
// Scores follow the paper's convention throughout: larger means more
// similar, so L2 lookup tables store NEGATED squared distances and the
// ADC sum is directly comparable across metrics.
package pq

import (
	"fmt"
	"sync"

	"anna/internal/f16"
	"anna/internal/kmeans"
	"anna/internal/par"
	"anna/internal/simd"
	"anna/internal/vecmath"
)

// Metric selects the similarity function.
type Metric int

const (
	// InnerProduct scores s(q,x) = q·x (MIPS).
	InnerProduct Metric = iota
	// L2 scores s(q,x) = -||q-x||² (negated so larger is more similar).
	L2
)

func (m Metric) String() string {
	switch m {
	case InnerProduct:
		return "ip"
	case L2:
		return "l2"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Quantizer is a trained product quantizer: M codebooks of Ks codewords,
// each codeword spanning Dsub = D/M dimensions.
type Quantizer struct {
	D    int // full vector dimensionality
	M    int // number of sub-spaces
	Ks   int // codewords per codebook (k* in the paper; 16 or 256 on ANNA)
	Dsub int // D / M

	// Codebooks holds M*Ks rows of Dsub values: codeword j of sub-space i
	// is row i*Ks+j.
	Codebooks *vecmath.Matrix

	// norms caches ‖codeword‖² per codebook row (same i*Ks+j layout),
	// computed lazily by codewordNorms for the batch encoder's
	// dot-product identity. Codebooks must not change once the first
	// encoder reads the cache; every construction path (Train, ivf.Build
	// with its f16 rounding pass, the index loader) finalizes codebooks
	// before any encoding starts.
	normsOnce sync.Once
	norms     []float32

	// transposed caches the dimension-major codebook copy the LUT fill
	// kernel reads (simd.TransposeCodebooks), under the same rule:
	// computed on first use, codebooks final by then.
	transposedOnce sync.Once
	transposed     []float32
}

// codewordNorms returns the cached squared-norm table, computing it on
// first use. Safe for concurrent callers.
func (q *Quantizer) codewordNorms() []float32 {
	q.normsOnce.Do(func() {
		n := make([]float32, q.M*q.Ks)
		for j := range n {
			n[j] = vecmath.NormSq(q.Codebooks.Row(j))
		}
		q.norms = n
	})
	return q.norms
}

// transposedCodebooks returns the cached dimension-major codebooks,
// computing them on first use. Safe for concurrent callers.
func (q *Quantizer) transposedCodebooks() []float32 {
	q.transposedOnce.Do(func() {
		q.transposed = simd.TransposeCodebooks(q.Codebooks.Data, q.M, q.Ks, q.Dsub)
	})
	return q.transposed
}

// Config controls quantizer training.
type Config struct {
	M          int   // sub-spaces; must divide D
	Ks         int   // codewords per codebook; must fit the code layout (<= 256)
	Iters      int   // k-means iterations per codebook (default 25)
	Seed       int64 // RNG seed
	Workers    int   // k-means parallelism
	MaxSamples int   // per-codebook training subsample (0 = all)
}

// Train learns codebooks from the rows of data (typically residual
// vectors r(x) = x - c). It panics on invalid configuration.
func Train(data *vecmath.Matrix, cfg Config) *Quantizer {
	if cfg.M <= 0 || data.Cols%cfg.M != 0 {
		panic(fmt.Sprintf("pq: M=%d must divide D=%d", cfg.M, data.Cols))
	}
	if cfg.Ks <= 1 || cfg.Ks > 256 {
		panic(fmt.Sprintf("pq: Ks=%d out of range (2..256)", cfg.Ks))
	}
	if data.Rows < cfg.Ks {
		panic(fmt.Sprintf("pq: %d training vectors < Ks=%d", data.Rows, cfg.Ks))
	}
	q := &Quantizer{
		D:         data.Cols,
		M:         cfg.M,
		Ks:        cfg.Ks,
		Dsub:      data.Cols / cfg.M,
		Codebooks: vecmath.NewMatrix(cfg.M*cfg.Ks, data.Cols/cfg.M),
	}
	// The M sub-space k-means runs are independent (each has its own
	// seed cfg.Seed+i and its own codebook rows), so they parallelize
	// with no effect on the trained result: outer workers split the
	// sub-spaces, leftover workers go to each run's internal passes —
	// which are themselves Workers-invariant — and every split yields
	// codebooks bit-identical to the serial loop.
	workers := par.Workers(cfg.Workers)
	outer := workers
	if outer > cfg.M {
		outer = cfg.M
	}
	inner := workers / outer
	subs := make([]*vecmath.Matrix, outer)
	par.Run(q.M, 1, outer, func(w, lo, _ int) {
		i := lo
		if subs[w] == nil {
			subs[w] = vecmath.NewMatrix(data.Rows, q.Dsub)
		}
		sub := subs[w]
		// Slice out sub-space i of every training vector.
		for r := 0; r < data.Rows; r++ {
			copy(sub.Row(r), data.Row(r)[i*q.Dsub:(i+1)*q.Dsub])
		}
		res := kmeans.Train(sub, kmeans.Config{
			K:          cfg.Ks,
			MaxIters:   cfg.Iters,
			Seed:       cfg.Seed + int64(i),
			Workers:    inner,
			MaxSamples: cfg.MaxSamples,
			// Only the codebook is consumed; skip the full-data
			// assignment pass kmeans would otherwise run per sub-space.
			SkipFinalAssign: true,
		})
		for j := 0; j < cfg.Ks; j++ {
			q.Codebooks.SetRow(i*cfg.Ks+j, res.Centroids.Row(j))
		}
	})
	return q
}

// Codeword returns codeword j of sub-space i (shared storage).
func (q *Quantizer) Codeword(i, j int) []float32 { return q.Codebooks.Row(i*q.Ks + j) }

// CodeBits returns the bits per sub-space identifier (log2 Ks, rounded up).
func (q *Quantizer) CodeBits() int {
	bits := 0
	for 1<<bits < q.Ks {
		bits++
	}
	return bits
}

// CodeBytes returns the packed size of one encoded vector:
// M*log2(Ks)/8 bytes (Section II-B).
func (q *Quantizer) CodeBytes() int { return (q.M*q.CodeBits() + 7) / 8 }

// CodebookBytes returns the on-chip storage for all codebooks at 2 bytes
// per element: 2*Ks*D bytes (Section III-B SRAM sizing).
func (q *Quantizer) CodebookBytes() int { return 2 * q.Ks * q.D }

// LUTBytes returns the storage of one full set of M lookup tables at
// 2 bytes per entry: 2*Ks*M bytes (Section III-B SRAM sizing).
func (q *Quantizer) LUTBytes() int { return 2 * q.Ks * q.M }

// Encode quantizes v into one codeword identifier per sub-space, appending
// to dst and returning the extended slice. Each identifier is the codeword
// minimising the squared L2 distance to the sub-vector (the training
// objective), regardless of search metric.
func (q *Quantizer) Encode(dst []byte, v []float32) []byte {
	if len(v) != q.D {
		panic("pq: Encode dimension mismatch")
	}
	for i := 0; i < q.M; i++ {
		sv := v[i*q.Dsub : (i+1)*q.Dsub]
		best, bd := 0, vecmath.L2Sq(sv, q.Codeword(i, 0))
		for j := 1; j < q.Ks; j++ {
			if d := vecmath.L2Sq(sv, q.Codeword(i, j)); d < bd {
				best, bd = j, d
			}
		}
		dst = append(dst, byte(best))
	}
	return dst
}

// Decode reconstructs the quantized vector from one identifier per
// sub-space into dst (length D).
func (q *Quantizer) Decode(dst []float32, codes []byte) {
	if len(codes) != q.M || len(dst) != q.D {
		panic("pq: Decode size mismatch")
	}
	for i := 0; i < q.M; i++ {
		copy(dst[i*q.Dsub:(i+1)*q.Dsub], q.Codeword(i, int(codes[i])))
	}
}

// LUT is a set of M lookup tables with Ks entries each, laid out
// row-major: entry j of table i is Values[i*Ks+j].
type LUT struct {
	M, Ks  int
	Values []float32
	// Bias is added to every ADC sum: q·c for inner-product search with a
	// cluster centroid (Section II-C); zero otherwise.
	Bias float32

	// planes mirrors Values as the byte planes the 4-bit scan kernel
	// shuffles through (simd.BuildNibblePlanes layout, 64 bytes per
	// table); nil unless Ks == 16. planesOK says the mirror is current:
	// FillIP, FillL2* and RoundF16 refresh it while the kernels are
	// enabled and mark it stale otherwise (scalar dispatch never reads
	// planes, so it does not pay for them), and the scan takes the
	// kernel path only on a current mirror. Code that stores into
	// Values directly must call SyncPlanes before scanning.
	planes   []byte
	planesOK bool
}

// NewLUT allocates an empty LUT for quantizer q.
func NewLUT(q *Quantizer) *LUT {
	l := &LUT{M: q.M, Ks: q.Ks, Values: make([]float32, q.M*q.Ks)}
	if q.Ks == 16 {
		l.planes = make([]byte, q.M*64)
		l.planesOK = true // all-zero planes mirror all-zero tables
	}
	return l
}

// SyncPlanes re-derives the scan kernel's byte planes from Values. The
// fill and rounding methods call it themselves; only callers that write
// Values by hand need to.
func (l *LUT) SyncPlanes() {
	l.planesOK = l.planes != nil && simd.Enabled()
	if l.planesOK {
		simd.BuildNibblePlanes(l.planes, l.Values, l.Ks, l.M)
	}
}

// At returns entry j of table i.
func (l *LUT) At(i, j int) float32 { return l.Values[i*l.Ks+j] }

// fillKernelMaxDsub bounds the sub-space widths the lane-per-codeword
// fill kernel serves: below it vecmath.Dot/L2Sq are the sequential
// scalar loops the kernel reproduces bit for bit; from it on they
// dispatch to the reassociating FMA reduction kernel, which the
// per-entry path keeps calling. The kernel also works in blocks of 16
// codewords (simd.FillLUT's contract), hence the Ks test below.
const fillKernelMaxDsub = 16

func (q *Quantizer) useFillKernel() bool {
	return simd.Enabled() && q.Dsub < fillKernelMaxDsub && q.Ks%16 == 0
}

// FillIP fills l with inner-product tables for query qv:
// L_i[j] = q_i · B_i[j]. The tables are independent of the cluster, so a
// single fill serves all selected clusters (Section II-C).
func (q *Quantizer) FillIP(l *LUT, qv []float32) {
	if len(qv) != q.D {
		panic("pq: FillIP dimension mismatch")
	}
	q.fill(l, qv, nil, nil, false)
}

// FillL2 fills l with negated squared-L2 tables for the residual query
// rq = q - c: L_i[j] = -||rq_i - B_i[j]||². The tables depend on the
// selected cluster and must be rebuilt per cluster (Section II-C).
func (q *Quantizer) FillL2(l *LUT, rq []float32) {
	if len(rq) != q.D {
		panic("pq: FillL2 dimension mismatch")
	}
	q.fill(l, rq, nil, nil, true)
}

// FillL2Residual is FillL2 for rq = qv - cv, bit-identical to
// subtracting first. The fill kernel folds the subtraction in; the
// per-entry path materialises rq in scratch (allocated when its length
// is not D).
func (q *Quantizer) FillL2Residual(l *LUT, qv, cv, scratch []float32) {
	if len(qv) != q.D || len(cv) != q.D {
		panic("pq: FillL2Residual dimension mismatch")
	}
	q.fill(l, qv, cv, scratch, true)
}

// fill writes the tables of qv (minus cv when non-nil) and their
// planes, and clears the bias.
func (q *Quantizer) fill(l *LUT, qv, cv, scratch []float32, l2 bool) {
	l.Bias = 0
	if q.useFillKernel() {
		simd.FillLUT(l.Values, l.planes, q.transposedCodebooks(), qv, cv, q.M, q.Ks, q.Dsub, l2)
		l.planesOK = l.planes != nil
		return
	}
	if cv != nil {
		if len(scratch) != q.D {
			scratch = make([]float32, q.D)
		}
		vecmath.Sub(scratch, qv, cv)
		qv = scratch
	}
	for i := 0; i < q.M; i++ {
		sv := qv[i*q.Dsub : (i+1)*q.Dsub]
		for j := 0; j < q.Ks; j++ {
			if l2 {
				l.Values[i*q.Ks+j] = -vecmath.L2Sq(sv, q.Codeword(i, j))
			} else {
				l.Values[i*q.Ks+j] = vecmath.Dot(sv, q.Codeword(i, j))
			}
		}
	}
	l.SyncPlanes()
}

// RoundF16 rounds every table entry (and the bias) through half precision,
// matching the 2-byte LUT SRAM of the accelerator.
func (l *LUT) RoundF16() {
	f16.RoundSlice(l.Values, l.Values)
	l.Bias = f16.Round(l.Bias)
	l.SyncPlanes()
}

// ADC computes the approximate similarity of the encoded vector (one
// identifier per sub-space) against the query represented by l:
// Bias + Σ_i L_i[code_i] (Section II-B memoized computation).
func (l *LUT) ADC(codes []byte) float32 {
	if len(codes) != l.M {
		panic("pq: ADC code length mismatch")
	}
	s := l.Bias
	for i, c := range codes {
		s += l.Values[i*l.Ks+int(c)]
	}
	return s
}

// ADCf16 is ADC with the accumulator rounded to half precision after every
// addition, matching a 16-bit hardware adder tree exactly is not required
// by the paper (the adder tree reduces in higher precision); ANNA stores
// only the final score as f16. ADCf16 therefore computes the full-precision
// sum and rounds once, which is what the top-k unit receives.
func (l *LUT) ADCf16(codes []byte) float32 { return f16.Round(l.ADC(codes)) }
