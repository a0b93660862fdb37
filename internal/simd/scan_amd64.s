//go:build amd64 && !noasm

#include "textflag.h"

// ADC list-scan kernels. Both vectorize ACROSS vectors — each SIMD lane
// owns one packed row and accumulates its float32 LUT entries in
// ascending sub-space order — so the sums are bit-identical to the
// scalar kernel in pq (same additions, same order, no FMA).
//
// adcSums4Asm: 32 rows at a time, rows 0-15 in the low 128-bit lane of
// every YMM and rows 16-31 in the high lane (all shuffles are in-lane,
// so the two halves never mix). Per 4-byte code column group it loads
// one dword per row, transposes each lane's 16x4 byte block in-register
// (PSHUFB + PUNPCK[LH]DQ + PUNPCK[LH]QDQ) into four 16-byte columns, and
// for each column's two nibble sub-spaces looks the float32 LUT entries
// up with four PSHUFBs over the byte-plane tables (the paper's
// in-register shuffle LUT for k*=16, broadcast to both lanes),
// reassembling floats with unpack interleaves. No gathers anywhere.
// After the last group it stores the 32 sums in row order and one
// survivor bit per row: bit r is set unless sums[r] < thresh.
//
// adcSums8Asm: 8 rows at a time for the k*=256 layout (LUT stride fixed
// at 256 entries). A 256-float table cannot live in registers, so each
// sub-space does eight independent scalar loads built into two XMM
// accumulator updates (gather-free: VPGATHER is slow or penalized on
// several production microarchitectures).

// 16x4 byte transpose shuffle: groups byte columns within one row dword.
DATA shufTranspose<>+0(SB)/8, $0x0d0905010c080400
DATA shufTranspose<>+8(SB)/8, $0x0f0b07030e0a0602
GLOBL shufTranspose<>(SB), RODATA|NOPTR, $16

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibbleMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $16

// LOADROWS loads one code dword from each of four consecutive rows
// (stride DX) at walker BX into the low lane of YD and from the four
// rows 16 further down (walker R8) into the high lane, advancing both.
#define LOADROWS(XD, YD, XT) \
	VMOVD       (BX), XD          \
	VMOVD       (R8), XT          \
	ADDQ        DX, BX            \
	ADDQ        DX, R8            \
	VPINSRD     $1, (BX), XD, XD  \
	VPINSRD     $1, (R8), XT, XT  \
	ADDQ        DX, BX            \
	ADDQ        DX, R8            \
	VPINSRD     $2, (BX), XD, XD  \
	VPINSRD     $2, (R8), XT, XT  \
	ADDQ        DX, BX            \
	ADDQ        DX, R8            \
	VPINSRD     $3, (BX), XD, XD  \
	VPINSRD     $3, (R8), XT, XT  \
	ADDQ        DX, BX            \
	ADDQ        DX, R8            \
	VINSERTI128 $1, XT, YD, YD

// SUBSPACE32 adds one sub-space's LUT values (32 rows) to the four
// accumulators. KIDX holds the 32 nibble indices; the plane table is at
// POFF(R12). Four PSHUFB byte-plane lookups, then byte->word->dword
// interleaves rebuild the float32s in row order within each lane.
#define SUBSPACE32(KIDX, POFF) \
	VBROADCASTI128 POFF(R12), Y6       \
	VBROADCASTI128 POFF+16(R12), Y7    \
	VBROADCASTI128 POFF+32(R12), Y10   \
	VBROADCASTI128 POFF+48(R12), Y11   \
	VPSHUFB        KIDX, Y6, Y6        \
	VPSHUFB        KIDX, Y7, Y7        \
	VPSHUFB        KIDX, Y10, Y10      \
	VPSHUFB        KIDX, Y11, Y11      \
	VPUNPCKLBW     Y7, Y6, Y4          \
	VPUNPCKHBW     Y7, Y6, Y6          \
	VPUNPCKLBW     Y11, Y10, Y7        \
	VPUNPCKHBW     Y11, Y10, Y10       \
	VPUNPCKLWD     Y7, Y4, Y11         \
	VADDPS         Y11, Y12, Y12       \
	VPUNPCKHWD     Y7, Y4, Y4          \
	VADDPS         Y4, Y13, Y13        \
	VPUNPCKLWD     Y10, Y6, Y7         \
	VADDPS         Y7, Y14, Y14        \
	VPUNPCKHWD     Y10, Y6, Y6         \
	VADDPS         Y6, Y15, Y15

// COLUMN processes one 2x16-byte code column K: low-nibble sub-space
// from the plane table at the cursor, high-nibble sub-space from the
// next, then advances the plane cursor by two tables.
#define COLUMN(K) \
	VPAND  Y8, K, Y4       \
	VPSRLW $4, K, Y5       \
	VPAND  Y8, Y5, Y5      \
	SUBSPACE32(Y4, 0)      \
	SUBSPACE32(Y5, 64)     \
	ADDQ   $128, R12

// GATE stores accumulator YA (rows ROW..ROW+3 low lane, ROW+16..ROW+19
// high lane) and ORs its survivor bits into the block mask in AX.
// Predicate 0x15 is NLT_UQ: true unless sum < thresh, ties and NaN
// included, which is exactly the complement of the Go-side skip test.
#define GATE(XA, YA, ROW) \
	VMOVUPS      XA, 4*ROW(R9)          \
	VEXTRACTF128 $1, YA, 4*ROW+64(R9)   \
	VCMPPS       $0x15, Y5, YA, Y4      \
	VMOVMSKPS    Y4, BX                 \
	MOVL         BX, CX                 \
	ANDL         $15, BX                \
	SHRL         $4, CX                 \
	SHLL         $ROW, BX               \
	SHLL         $ROW+16, CX            \
	ORL          BX, AX                 \
	ORL          CX, AX

// func adcSums4Asm(planes *byte, packed *byte, codeBytes, groups int, sums *float32, n32 int, bias, thresh float32, mask *uint32)
TEXT ·adcSums4Asm(SB), NOSPLIT, $0-64
	MOVQ planes+0(FP), R13
	MOVQ packed+8(FP), SI
	MOVQ codeBytes+16(FP), DX
	MOVQ sums+32(FP), R9
	MOVQ n32+40(FP), R10
	MOVQ mask+56(FP), DI
	SHRQ $5, R10             // 32-row blocks
	JZ   s4done
	VBROADCASTI128 shufTranspose<>(SB), Y9
	VBROADCASTI128 nibbleMask<>(SB), Y8

s4rowblock:
	VBROADCASTSS bias+48(FP), Y12
	VMOVAPS Y12, Y13
	VMOVAPS Y12, Y14
	VMOVAPS Y12, Y15
	MOVQ    SI, R11          // current column-group base
	MOVQ    R13, R12         // plane-table cursor
	MOVQ    groups+24(FP), CX

s4group:
	// Gather-free strided load: one dword (4 code bytes) per row.
	MOVQ R11, BX
	MOVQ DX, R8
	SHLQ $4, R8
	ADDQ R11, R8             // rows 16.. of this block
	LOADROWS(X0, Y0, X4)
	LOADROWS(X1, Y1, X5)
	LOADROWS(X2, Y2, X6)
	LOADROWS(X3, Y3, X7)

	// Transpose 16 rows x 4 bytes into 4 columns x 16 rows, per lane.
	VPSHUFB Y9, Y0, Y0
	VPSHUFB Y9, Y1, Y1
	VPSHUFB Y9, Y2, Y2
	VPSHUFB Y9, Y3, Y3
	VPUNPCKLDQ  Y1, Y0, Y4
	VPUNPCKHDQ  Y1, Y0, Y5
	VPUNPCKLDQ  Y3, Y2, Y6
	VPUNPCKHDQ  Y3, Y2, Y7
	VPUNPCKLQDQ Y6, Y4, Y0
	VPUNPCKHQDQ Y6, Y4, Y1
	VPUNPCKLQDQ Y7, Y5, Y2
	VPUNPCKHQDQ Y7, Y5, Y3

	COLUMN(Y0)
	COLUMN(Y1)
	COLUMN(Y2)
	COLUMN(Y3)

	ADDQ $4, R11
	DECQ CX
	JNZ  s4group

	VBROADCASTSS thresh+52(FP), Y5
	XORL AX, AX
	GATE(X12, Y12, 0)
	GATE(X13, Y13, 4)
	GATE(X14, Y14, 8)
	GATE(X15, Y15, 12)
	MOVL AX, (DI)
	ADDQ $4, DI
	ADDQ $128, R9
	MOVQ DX, AX
	SHLQ $5, AX
	ADDQ AX, SI              // next 32 rows
	DECQ R10
	JNZ  s4rowblock
	VZEROUPPER

s4done:
	RET

// LOADVAL4 builds an XMM of four LUT values for one sub-space from four
// consecutive rows' code bytes (walker R8, stride DX, table base DI).
#define LOADVAL4(XD) \
	MOVBLZX   (R8), AX                   \
	VMOVSS    (DI)(AX*4), XD             \
	ADDQ      DX, R8                     \
	MOVBLZX   (R8), AX                   \
	VINSERTPS $0x10, (DI)(AX*4), XD, XD  \
	ADDQ      DX, R8                     \
	MOVBLZX   (R8), AX                   \
	VINSERTPS $0x20, (DI)(AX*4), XD, XD  \
	ADDQ      DX, R8                     \
	MOVBLZX   (R8), AX                   \
	VINSERTPS $0x30, (DI)(AX*4), XD, XD  \
	ADDQ      DX, R8

// func adcSums8Asm(vals *float32, packed *byte, codeBytes, m8 int, sums *float32, n8 int, bias float32)
TEXT ·adcSums8Asm(SB), NOSPLIT, $0-52
	MOVQ vals+0(FP), R11
	MOVQ packed+8(FP), SI
	MOVQ codeBytes+16(FP), DX
	MOVQ sums+32(FP), R12
	MOVQ n8+40(FP), R10
	SHRQ $3, R10             // 8-row blocks
	JZ   s8done

s8rowblock:
	VBROADCASTSS bias+48(FP), X14
	VMOVAPS X14, X15
	MOVQ    R11, DI          // LUT cursor, advances 256 floats per sub-space
	MOVQ    SI, R9           // code-column cursor
	MOVQ    m8+24(FP), CX

s8subspace:
	MOVQ R9, R8
	LOADVAL4(X0)
	LOADVAL4(X1)
	VADDPS X0, X14, X14
	VADDPS X1, X15, X15
	ADDQ   $1024, DI
	INCQ   R9
	DECQ   CX
	JNZ    s8subspace

	VMOVUPS X14, (R12)
	VMOVUPS X15, 16(R12)
	ADDQ    $32, R12
	MOVQ    DX, AX
	SHLQ    $3, AX
	ADDQ    AX, SI           // next 8 rows
	DECQ    R10
	JNZ     s8rowblock

s8done:
	RET
