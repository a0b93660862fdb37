//go:build amd64 && !noasm

#include "textflag.h"

// LUT construction kernel (the paper's Codebook Processing Module).
// It vectorizes ACROSS codewords: each of the 16 lanes of a YMM pair
// owns one codeword of the current sub-space and walks the sub-space's
// dimensions in ascending order, reading the transposed codebook
// (dimension-major, so 16 consecutive codewords are one 64-byte run).
// Per dimension it does exactly the scalar loop's operations — subtract
// (residual), subtract, multiply, add for L2; multiply, add for inner
// product — with separate VMULPS/VADDPS, never FMA, starting from +0,
// so every table entry is bit-identical to vecmath.L2Sq/Dot's scalar
// loop. L2 entries are negated by a sign-bit flip, as Go's unary minus.
//
// With planes != nil (ks == 16: one YMM pair is one whole table) it
// also emits the table's four byte planes — the scan kernel's PSHUFB
// operands — from the registers that hold the fresh entries.

DATA signBit<>+0(SB)/4, $0x80000000
GLOBL signBit<>(SB), RODATA|NOPTR, $4

// Per-lane byte grouping [b0 of 4 floats | b1.. | b2.. | b3..]: the
// scan kernel's 16x4 transpose shuffle (symbols are file-local).
DATA planeSplit<>+0(SB)/8, $0x0d0905010c080400
DATA planeSplit<>+8(SB)/8, $0x0f0b07030e0a0602
GLOBL planeSplit<>(SB), RODATA|NOPTR, $16

// VPERMD indices that interleave the two lanes' dwords: after the
// per-lane byte grouping a register holds plane dwords [p0 p1 p2 p3 |
// p0' p1' p2' p3']; this turns it into [p0 p0' p1 p1' | p2 p2' p3 p3'].
DATA planePerm<>+0(SB)/8, $0x0000000400000000
DATA planePerm<>+8(SB)/8, $0x0000000500000001
DATA planePerm<>+16(SB)/8, $0x0000000600000002
DATA planePerm<>+24(SB)/8, $0x0000000700000003
GLOBL planePerm<>(SB), RODATA|NOPTR, $32

// func fillLUTAsm(vals *float32, planes *byte, cbT, q, c *float32, m, ks, dsub int, l2 bool)
TEXT ·fillLUTAsm(SB), NOSPLIT, $0-65
	MOVQ vals+0(FP), DI
	MOVQ planes+8(FP), R9
	MOVQ cbT+16(FP), SI
	MOVQ q+24(FP), R10
	MOVQ c+32(FP), R11
	MOVQ m+40(FP), R12
	MOVQ ks+48(FP), DX
	SHLQ $2, DX              // bytes between dimensions of the transposed codebook
	MOVQ dsub+56(FP), R13
	VBROADCASTSS   signBit<>(SB), Y8
	VBROADCASTI128 planeSplit<>(SB), Y9
	VMOVDQU        planePerm<>(SB), Y10

fsub:                        // one sub-space: ks entries from dsub dimensions
	MOVQ ks+48(FP), CX
	SHRQ $4, CX              // 16-codeword blocks
	MOVQ SI, AX              // first dimension, first block

fblock:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   AX, BX
	XORQ   R8, R8            // dimension index

fdim:
	VBROADCASTSS (R10)(R8*4), Y2
	CMPB  l2+64(FP), $0
	JEQ   fip
	TESTQ R11, R11
	JZ    fnoresid
	VBROADCASTSS (R11)(R8*4), Y3
	VSUBPS Y3, Y2, Y2        // residual q-c, rounded as vecmath.Sub would
fnoresid:
	VSUBPS (BX), Y2, Y4
	VSUBPS 32(BX), Y2, Y5
	VMULPS Y4, Y4, Y4
	VMULPS Y5, Y5, Y5
	JMP    facc
fip:
	VMULPS (BX), Y2, Y4
	VMULPS 32(BX), Y2, Y5
facc:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	ADDQ   DX, BX
	INCQ   R8
	CMPQ   R8, R13
	JLT    fdim

	CMPB  l2+64(FP), $0
	JEQ   fstore
	VXORPS Y8, Y0, Y0
	VXORPS Y8, Y1, Y1
fstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, AX
	DECQ    CX
	JNZ     fblock

	TESTQ R9, R9
	JZ    fnext
	// Y0/Y1 hold the table's entries 0-7/8-15. Group bytes by plane
	// within each lane, interleave the lanes, then pair the halves:
	// Y4 = [plane0 | plane2], Y5 = [plane1 | plane3].
	VPSHUFB     Y9, Y0, Y0
	VPSHUFB     Y9, Y1, Y1
	VPERMD      Y0, Y10, Y0
	VPERMD      Y1, Y10, Y1
	VPUNPCKLQDQ Y1, Y0, Y4
	VPUNPCKHQDQ Y1, Y0, Y5
	VMOVDQU      X4, (R9)
	VMOVDQU      X5, 16(R9)
	VEXTRACTI128 $1, Y4, 32(R9)
	VEXTRACTI128 $1, Y5, 48(R9)
	ADDQ         $64, R9

fnext:
	MOVQ  R13, AX
	IMULQ DX, AX
	ADDQ  AX, SI             // next sub-space's transposed block
	LEAQ  (R10)(R13*4), R10
	TESTQ R11, R11
	JZ    fnoc
	LEAQ  (R11)(R13*4), R11
fnoc:
	DECQ R12
	JNZ  fsub
	VZEROUPPER
	RET
