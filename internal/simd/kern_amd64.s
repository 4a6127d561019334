//go:build amd64 && !noasm

#include "textflag.h"

// SSE2 kernels for the hot elementwise loops of the encoder. SSE2 is
// the amd64 baseline, so these run on every amd64 CPU with no feature
// probe; like the SPE they are 4 lanes of 32 bits with no packed 32-bit
// integer multiply.
//
// Conventions (see DESIGN.md §7):
//   - Every kernel processes the longest whole-vector prefix of the row
//     (n &^ 3 elements) and returns that count in n; the Go wrapper runs
//     the scalar oracle over the tail.
//   - All memory accesses use unaligned loads/stores (MOVUPS / MOVOU),
//     so callers may pass slices at any offset.
//   - Float kernels use only packed add/sub/mul, so every lane performs
//     the same sequence of IEEE-754 float32 roundings as the Go scalar
//     loop and results are bit-identical.
//   - Arithmetic never takes a memory operand (m128 forms require
//     16-byte alignment); operands are loaded with MOVUPS/MOVOU first.

// ---------------------------------------------------------------------
// addMulF32: dst[i] = a[i] + k*(b[i]+c[i])
// ---------------------------------------------------------------------

// func addMulF32Vec(dst, a, b, c []float32, k float32) (n int)
TEXT ·addMulF32Vec(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVSS  k+96(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS (R8)(CX*4), X1
	MOVUPS (R9)(CX*4), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS (SI)(CX*4), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+104(FP)
	RET

// ---------------------------------------------------------------------
// addMulScaleF32: s[i] = (s[i] + k*(b[i]+c[i])) * scale
// ---------------------------------------------------------------------

// func addMulScaleF32Vec(s, b, c []float32, k, scale float32) (n int)
TEXT ·addMulScaleF32Vec(SB), NOSPLIT, $0-88
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), DX
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), R9
	MOVSS  k+72(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS  scale+76(FP), X4
	SHUFPS $0x00, X4, X4
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS (R8)(CX*4), X1
	MOVUPS (R9)(CX*4), X2
	ADDPS  X2, X1
	MULPS  X0, X1
	MOVUPS (DI)(CX*4), X3
	ADDPS  X3, X1
	MULPS  X4, X1
	MOVUPS X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+80(FP)
	RET

// ---------------------------------------------------------------------
// mulConstF32: dst[i] = src[i] * k
// ---------------------------------------------------------------------

// func mulConstF32Vec(dst, src []float32, k float32) (n int)
TEXT ·mulConstF32Vec(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVSS  k+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS (SI)(CX*4), X1
	MULPS  X0, X1
	MOVUPS X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+56(FP)
	RET

// ---------------------------------------------------------------------
// quantF32: dst[i] = trunc(src[i] * inv)  (dead-zone quantizer core;
// CVTTPS2DQ truncates toward zero and yields 0x80000000 on overflow
// and NaN, exactly like gc's scalar CVTTSS2SL on both branches of the
// sign split in the Go loop)
// ---------------------------------------------------------------------

// func quantF32Vec(dst []int32, src []float32, inv float32) (n int)
TEXT ·quantF32Vec(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	MOVSS  inv+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS    (SI)(CX*4), X1
	MULPS     X0, X1
	CVTTPS2PL X1, X1
	MOVOU     X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+56(FP)
	RET

// ---------------------------------------------------------------------
// ictFwd: irreversible color transform.
//   rr = float32(r[i]) - off (likewise gg, bb)
//   y  = (YR*rr + YG*gg) + YB*bb   (left-assoc, same rounding order
//   cb = (CbR*rr + CbG*gg) + CbB*bb as the scalar loop)
//   cr = (CrR*rr + CrG*gg) + CrB*bb
// ICTParams field offsets: Off=0 YR=4 YG=8 YB=12 CbR=16 CbG=20 CbB=24
// CrR=28 CrG=32 CrB=36.
// ---------------------------------------------------------------------

// func ictFwdVec(r, g, b []int32, y, cb, cr []float32, p *ICTParams) (n int)
TEXT ·ictFwdVec(SB), NOSPLIT, $0-160
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), DX
	MOVQ g_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVQ y_base+72(FP), R10
	MOVQ cb_base+96(FP), R11
	MOVQ cr_base+120(FP), R12
	MOVQ p+144(FP), BX
	MOVSS  0(BX), X5
	SHUFPS $0x00, X5, X5     // off
	MOVSS  4(BX), X6
	SHUFPS $0x00, X6, X6     // YR
	MOVSS  8(BX), X7
	SHUFPS $0x00, X7, X7     // YG
	MOVSS  12(BX), X8
	SHUFPS $0x00, X8, X8     // YB
	MOVSS  16(BX), X9
	SHUFPS $0x00, X9, X9     // CbR
	MOVSS  20(BX), X10
	SHUFPS $0x00, X10, X10   // CbG
	MOVSS  24(BX), X11
	SHUFPS $0x00, X11, X11   // CbB
	MOVSS  28(BX), X12
	SHUFPS $0x00, X12, X12   // CrR
	MOVSS  32(BX), X13
	SHUFPS $0x00, X13, X13   // CrG
	MOVSS  36(BX), X14
	SHUFPS $0x00, X14, X14   // CrB
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU    (SI)(CX*4), X0
	CVTPL2PS X0, X0
	SUBPS    X5, X0          // rr
	MOVOU    (R8)(CX*4), X1
	CVTPL2PS X1, X1
	SUBPS    X5, X1          // gg
	MOVOU    (R9)(CX*4), X2
	CVTPL2PS X2, X2
	SUBPS    X5, X2          // bb

	MOVAPS X6, X3
	MULPS  X0, X3
	MOVAPS X7, X4
	MULPS  X1, X4
	ADDPS  X4, X3
	MOVAPS X8, X4
	MULPS  X2, X4
	ADDPS  X4, X3
	MOVUPS X3, (R10)(CX*4)

	MOVAPS X9, X3
	MULPS  X0, X3
	MOVAPS X10, X4
	MULPS  X1, X4
	ADDPS  X4, X3
	MOVAPS X11, X4
	MULPS  X2, X4
	ADDPS  X4, X3
	MOVUPS X3, (R11)(CX*4)

	MOVAPS X12, X3
	MULPS  X0, X3
	MOVAPS X13, X4
	MULPS  X1, X4
	ADDPS  X4, X3
	MOVAPS X14, X4
	MULPS  X2, X4
	ADDPS  X4, X3
	MOVUPS X3, (R12)(CX*4)

	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+152(FP)
	RET

// ---------------------------------------------------------------------
// 5/3 integer lifting rows. Two's-complement wrap and arithmetic shift
// match the Go scalar loops on every input.
//   addShr1: dst[i] = a[i] + ((b[i]+c[i]) >> 1)
//   subShr1: dst[i] = a[i] - ((b[i]+c[i]) >> 1)
//   addShr2: dst[i] = a[i] + ((b[i]+c[i]+2) >> 2)
//   subShr2: dst[i] = a[i] - ((b[i]+c[i]+2) >> 2)
// ---------------------------------------------------------------------

// func addShr1I32Vec(dst, a, b, c []int32) (n int)
TEXT ·addShr1I32Vec(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1
	MOVOU (R9)(CX*4), X2
	PADDL X2, X1
	PSRAL $1, X1
	MOVOU (SI)(CX*4), X3
	PADDL X3, X1
	MOVOU X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+96(FP)
	RET

// func subShr1I32Vec(dst, a, b, c []int32) (n int)
TEXT ·subShr1I32Vec(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1
	MOVOU (R9)(CX*4), X2
	PADDL X2, X1
	PSRAL $1, X1
	MOVOU (SI)(CX*4), X3
	PSUBL X1, X3
	MOVOU X3, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+96(FP)
	RET

// func addShr2I32Vec(dst, a, b, c []int32) (n int)
TEXT ·addShr2I32Vec(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	PCMPEQL X7, X7
	PSRLL   $31, X7
	PADDL   X7, X7           // 2 in every lane
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1
	MOVOU (R9)(CX*4), X2
	PADDL X2, X1
	PADDL X7, X1
	PSRAL $2, X1
	MOVOU (SI)(CX*4), X3
	PADDL X3, X1
	MOVOU X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+96(FP)
	RET

// func subShr2I32Vec(dst, a, b, c []int32) (n int)
TEXT ·subShr2I32Vec(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	PCMPEQL X7, X7
	PSRLL   $31, X7
	PADDL   X7, X7           // 2 in every lane
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1
	MOVOU (R9)(CX*4), X2
	PADDL X2, X1
	PADDL X7, X1
	PSRAL $2, X1
	MOVOU (SI)(CX*4), X3
	PSUBL X1, X3
	MOVOU X3, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+96(FP)
	RET

// ---------------------------------------------------------------------
// addConstI32: dst[i] += k  (DC level shift)
// ---------------------------------------------------------------------

// func addConstI32Vec(dst []int32, k int32) (n int)
TEXT ·addConstI32Vec(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL   k+24(FP), AX
	MOVQ   AX, X0
	PSHUFL $0x00, X0, X0
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (DI)(CX*4), X1
	PADDL X0, X1
	MOVOU X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+32(FP)
	RET

// ---------------------------------------------------------------------
// rctFwd: reversible color transform, in place.
//   rr,gg,bb = r-off, g-off, b-off
//   r = (rr + 2*gg + bb) >> 2;  g = bb - gg;  b = rr - gg
// ---------------------------------------------------------------------

// func rctFwdVec(r, g, b []int32, off int32) (n int)
TEXT ·rctFwdVec(SB), NOSPLIT, $0-88
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), DX
	MOVQ g_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVL   off+72(FP), AX
	MOVQ   AX, X7
	PSHUFL $0x00, X7, X7
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (SI)(CX*4), X0
	PSUBL X7, X0             // rr
	MOVOU (R8)(CX*4), X1
	PSUBL X7, X1             // gg
	MOVOU (R9)(CX*4), X2
	PSUBL X7, X2             // bb
	MOVOU X1, X3
	PADDL X1, X3             // 2*gg
	PADDL X0, X3
	PADDL X2, X3
	PSRAL $2, X3             // y
	MOVOU X2, X4
	PSUBL X1, X4             // cb
	MOVOU X0, X5
	PSUBL X1, X5             // cr
	MOVOU X3, (SI)(CX*4)
	MOVOU X4, (R8)(CX*4)
	MOVOU X5, (R9)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+80(FP)
	RET

// ---------------------------------------------------------------------
// Q13 fixed-point lifting. fixMul(k, s) = (k*s + 4096) >> 13 computed
// as k*(s>>13) + ((k*(s&8191) + 4096) >> 13): exact because
// k*s = k*sHi*8192 + k*sLo and the first term is a multiple of 8192,
// and k*sLo fits int32 for the lifting constants (|k| < 2^18). The
// final sum wraps mod 2^32 exactly like the scalar int32 truncation.
//   fixAddMul: d[i] += fixMul(k, b[i]+c[i])
// ---------------------------------------------------------------------

// func fixAddMulVec(d, b, c []int32, k int32) (n int)
// SSE2 has no packed 32-bit mullo; emulate with PMULULQ (pmuludq) on
// even/odd lanes and repack the low dwords — low 32 bits of an
// unsigned product equal the signed mullo.
TEXT ·fixAddMulVec(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), DX
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), R9
	MOVL   k+72(FP), AX
	MOVQ   AX, X12
	PSHUFL $0x00, X12, X12
	PCMPEQL X13, X13
	PSRLL   $19, X13         // 8191
	PCMPEQL X14, X14
	PSRLL   $31, X14
	PSLLL   $12, X14         // 4096
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1
	MOVOU (R9)(CX*4), X0
	PADDL X0, X1             // s
	MOVOU X1, X4
	PSRAL $13, X4            // sHi
	PAND  X13, X1            // sLo

	MOVOU   X4, X2           // mullo(sHi, k)
	PSRLQ   $32, X2
	PMULULQ X12, X4
	PMULULQ X12, X2
	PSHUFL  $0x08, X4, X4
	PSHUFL  $0x08, X2, X2
	PUNPCKLLQ X2, X4         // X4 = k*sHi

	MOVOU   X1, X2           // mullo(sLo, k)
	PSRLQ   $32, X2
	PMULULQ X12, X1
	PMULULQ X12, X2
	PSHUFL  $0x08, X1, X1
	PSHUFL  $0x08, X2, X2
	PUNPCKLLQ X2, X1         // X1 = k*sLo

	PADDL X14, X1
	PSRAL $13, X1
	PADDL X1, X4
	MOVOU (DI)(CX*4), X0
	PADDL X4, X0
	MOVOU X0, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+80(FP)
	RET

// ---------------------------------------------------------------------
// absOr: mag[i] = |coef[i]|, returning the running OR of all written
// magnitudes (bitLen(OR) == bitLen(max), which is all Tier-1 needs).
// ---------------------------------------------------------------------

// func absOrVec(mag []uint32, coef []int32) (n int, or uint32)
TEXT ·absOrVec(SB), NOSPLIT, $0-60
	MOVQ mag_base+0(FP), DI
	MOVQ mag_len+8(FP), DX
	MOVQ coef_base+24(FP), SI
	PXOR X0, X0
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (SI)(CX*4), X1
	MOVOU X1, X2
	PSRAL $31, X2            // sign mask
	PXOR  X2, X1
	PSUBL X2, X1             // |coef|
	MOVOU X1, (DI)(CX*4)
	POR   X1, X0
	ADDQ $4, CX
	JMP  loop
done:
	PSHUFL $0x4E, X0, X1
	POR    X1, X0
	PSHUFL $0xB1, X0, X1
	POR    X1, X0
	MOVQ X0, BX
	MOVL BX, or+56(FP)
	MOVQ AX, n+48(FP)
	RET

// ---------------------------------------------------------------------
// orU32: dst[i] |= src[i]  (stripe OR accumulation)
// ---------------------------------------------------------------------

// func orU32Vec(dst, src []uint32) (n int)
TEXT ·orU32Vec(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (SI)(CX*4), X1
	MOVOU (DI)(CX*4), X2
	POR   X2, X1
	MOVOU X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+48(FP)
	RET

// ---------------------------------------------------------------------
// signOr: flags[i] |= bit where coef[i] < 0
// ---------------------------------------------------------------------

// func signOrVec(flags []uint32, coef []int32, bit uint32) (n int)
TEXT ·signOrVec(SB), NOSPLIT, $0-64
	MOVQ flags_base+0(FP), DI
	MOVQ flags_len+8(FP), DX
	MOVQ coef_base+24(FP), SI
	MOVL   bit+48(FP), AX
	MOVQ   AX, X2
	PSHUFL $0x00, X2, X2
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (SI)(CX*4), X1
	PSRAL $31, X1
	PAND  X2, X1
	MOVOU (DI)(CX*4), X3
	POR   X3, X1
	MOVOU X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+56(FP)
	RET

// ---------------------------------------------------------------------
// planeMask: the HT encoder's per-row bit sets at plane p. Bit i of nz
// is mag[i]>>p != 0, bit i of bit is (mag[i]>>(p-1))&1. Each vector's
// lane masks (MOVMSKPS) shift into the word being built at i mod 64; a
// word is stored when complete, and a final partial one with its high
// bits zero, which the scalar tail completes. The shift counts come
// from an XMM register, so the count p-1 = 2^64-1 at p = 0 clears
// every lane, as the scalar shift does.
// ---------------------------------------------------------------------

// func planeMaskVec(nz, bit []uint64, mag []uint32, p uint) (n int)
TEXT ·planeMaskVec(SB), NOSPLIT, $0-88
	MOVQ nz_base+0(FP), DI
	MOVQ bit_base+24(FP), SI
	MOVQ mag_base+48(FP), BX
	MOVQ mag_len+56(FP), AX
	MOVQ p+72(FP), DX
	MOVQ DX, X2              // count p
	DECQ DX
	MOVQ DX, X3              // count p-1
	PXOR X4, X4
	ANDQ $-4, AX
	XORQ CX, CX
	XORQ R10, R10            // nz word being built
	XORQ R11, R11            // bit word being built
loop:
	CMPQ CX, AX
	JGE  tail
	MOVOU    (BX)(CX*4), X0
	MOVOU    X0, X1
	PSRLL    X2, X1
	PCMPEQL  X4, X1          // all ones where mag>>p == 0
	MOVMSKPS X1, R8
	XORQ     $0xF, R8
	PSRLL    X3, X0
	PSLLL    $31, X0         // plane p-1's bit to the sign
	MOVMSKPS X0, R9
	SHLQ CX, R8              // shift counts are taken mod 64
	SHLQ CX, R9
	ORQ  R8, R10
	ORQ  R9, R11
	ADDQ $4, CX
	TESTQ $63, CX
	JNZ  loop
	MOVQ CX, R8
	SHRQ $6, R8
	MOVQ R10, -8(DI)(R8*8)
	MOVQ R11, -8(SI)(R8*8)
	XORQ R10, R10
	XORQ R11, R11
	JMP  loop
tail:
	TESTQ $63, AX
	JZ   done
	MOVQ AX, R8
	SHRQ $6, R8
	MOVQ R10, (DI)(R8*8)
	MOVQ R11, (SI)(R8*8)
done:
	MOVQ AX, n+80(FP)
	RET

// ---------------------------------------------------------------------
// dequantF32: dst[i] = (float32(q) ± 0.5) * delta with q's sign, and 0
// where q == 0. The bias is built as 0.5 OR'd with q's sign bit, so the
// negative branch computes f + (-0.5) — bitwise identical to the scalar
// f - 0.5. CVTDQ2PS rounds int32→float32 to nearest even, matching gc's
// scalar CVTSI2SS.
// ---------------------------------------------------------------------

// func dequantF32Vec(dst []float32, src []int32, delta float32) (n int)
TEXT ·dequantF32Vec(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	MOVSS  delta+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVL   $0x3F000000, AX   // 0.5f
	MOVQ   AX, X8
	PSHUFL $0x00, X8, X8
	MOVL   $0x80000000, AX   // sign bit
	MOVQ   AX, X9
	PSHUFL $0x00, X9, X9
	PXOR   X10, X10          // zero
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU    (SI)(CX*4), X1  // q
	MOVOU    X1, X2
	CVTPL2PS X2, X2          // float32(q)
	MOVOU    X1, X3
	PAND     X9, X3          // sign bit
	POR      X8, X3          // ±0.5
	ADDPS    X3, X2
	MULPS    X0, X2          // * delta
	MOVOU    X1, X4
	PCMPEQL  X10, X4         // all-ones where q == 0
	PANDN    X2, X4          // force 0 there
	MOVUPS   X4, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+56(FP)
	RET

// ---------------------------------------------------------------------
// rctInv: inverse reversible color transform + level unshift, in place.
//   g = y - ((cb+cr)>>2);  r = cr+g;  b = cb+g
//   y,cb,cr = r+off, g+off, b+off
// ---------------------------------------------------------------------

// func rctInvVec(y, cb, cr []int32, off int32) (n int)
TEXT ·rctInvVec(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), SI
	MOVQ y_len+8(FP), DX
	MOVQ cb_base+24(FP), R8
	MOVQ cr_base+48(FP), R9
	MOVL   off+72(FP), AX
	MOVQ   AX, X7
	PSHUFL $0x00, X7, X7
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (R8)(CX*4), X1     // cb
	MOVOU (R9)(CX*4), X2     // cr
	MOVOU X1, X3
	PADDL X2, X3
	PSRAL $2, X3             // (cb+cr)>>2
	MOVOU (SI)(CX*4), X0     // y
	PSUBL X3, X0             // g
	MOVOU X2, X4
	PADDL X0, X4             // r
	MOVOU X1, X5
	PADDL X0, X5             // b
	PADDL X7, X4
	PADDL X7, X0
	PADDL X7, X5
	MOVOU X4, (SI)(CX*4)
	MOVOU X0, (R8)(CX*4)
	MOVOU X5, (R9)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+80(FP)
	RET

// ---------------------------------------------------------------------
// ictInv: inverse irreversible color transform + level unshift with
// round-half-away-from-zero:
//   r = round((yy + RCr*cr) + off)
//   g = round(((yy - GCb*cb) - GCr*cr) + off)
//   b = round((yy + BCb*cb) + off)
// round(v) = sign-restore(trunc(|v| + 0.5)): |v| via an AND mask, the
// sign as a PSRAD $31 all-ones mask, negation as (x XOR m) - m. This
// reproduces the scalar roundHalfAway on every lane, including the
// 0x80000000 overflow/NaN result of the truncating conversion.
// ICTInvParams field offsets: Off=0 RCr=4 GCb=8 GCr=12 BCb=16.
// ---------------------------------------------------------------------

// func ictInvVec(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) (n int)
TEXT ·ictInvVec(SB), NOSPLIT, $0-160
	MOVQ y_base+0(FP), SI
	MOVQ y_len+8(FP), DX
	MOVQ cb_base+24(FP), R8
	MOVQ cr_base+48(FP), R9
	MOVQ r_base+72(FP), R10
	MOVQ g_base+96(FP), R11
	MOVQ b_base+120(FP), R12
	MOVQ p+144(FP), BX
	MOVSS  0(BX), X5
	SHUFPS $0x00, X5, X5     // off
	MOVSS  4(BX), X6
	SHUFPS $0x00, X6, X6     // RCr
	MOVSS  8(BX), X7
	SHUFPS $0x00, X7, X7     // GCb
	MOVSS  12(BX), X8
	SHUFPS $0x00, X8, X8     // GCr
	MOVSS  16(BX), X9
	SHUFPS $0x00, X9, X9     // BCb
	MOVL   $0x3F000000, AX   // 0.5f
	MOVQ   AX, X10
	PSHUFL $0x00, X10, X10
	MOVL   $0x7FFFFFFF, AX   // abs mask
	MOVQ   AX, X11
	PSHUFL $0x00, X11, X11
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS (SI)(CX*4), X0    // yy
	MOVUPS (R8)(CX*4), X1    // cb
	MOVUPS (R9)(CX*4), X2    // cr

	MOVAPS X6, X3
	MULPS  X2, X3            // RCr*cr
	ADDPS  X0, X3
	ADDPS  X5, X3            // rf
	MOVAPS X3, X4
	PSRAL  $31, X4
	PAND   X11, X3
	ADDPS  X10, X3
	CVTTPS2PL X3, X3
	PXOR   X4, X3
	PSUBL  X4, X3
	MOVOU  X3, (R10)(CX*4)

	MOVAPS X7, X3
	MULPS  X1, X3            // GCb*cb
	MOVAPS X0, X12
	SUBPS  X3, X12           // yy - GCb*cb
	MOVAPS X8, X3
	MULPS  X2, X3            // GCr*cr
	SUBPS  X3, X12
	ADDPS  X5, X12           // gf
	MOVAPS X12, X4
	PSRAL  $31, X4
	PAND   X11, X12
	ADDPS  X10, X12
	CVTTPS2PL X12, X12
	PXOR   X4, X12
	PSUBL  X4, X12
	MOVOU  X12, (R11)(CX*4)

	MOVAPS X9, X3
	MULPS  X1, X3            // BCb*cb
	ADDPS  X0, X3
	ADDPS  X5, X3            // bf
	MOVAPS X3, X4
	PSRAL  $31, X4
	PAND   X11, X3
	ADDPS  X10, X3
	CVTTPS2PL X3, X3
	PXOR   X4, X3
	PSUBL  X4, X3
	MOVOU  X3, (R12)(CX*4)

	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+152(FP)
	RET

// ---------------------------------------------------------------------
// roundAddF32: dst[i] = roundHalfAway(src[i] + off) — the inverse level
// shift of a float component decoded without the color transform. Same
// rounding sequence as ictInv.
// ---------------------------------------------------------------------

// func roundAddF32Vec(dst []int32, src []float32, off float32) (n int)
TEXT ·roundAddF32Vec(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	MOVSS  off+48(FP), X0
	SHUFPS $0x00, X0, X0
	MOVL   $0x3F000000, AX   // 0.5f
	MOVQ   AX, X8
	PSHUFL $0x00, X8, X8
	MOVL   $0x7FFFFFFF, AX   // abs mask
	MOVQ   AX, X9
	PSHUFL $0x00, X9, X9
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVUPS (SI)(CX*4), X1
	ADDPS  X0, X1            // v = src + off
	MOVAPS X1, X4
	PSRAL  $31, X4
	PAND   X9, X1
	ADDPS  X8, X1
	CVTTPS2PL X1, X1
	PXOR   X4, X1
	PSUBL  X4, X1
	MOVOU  X1, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+56(FP)
	RET

// ---------------------------------------------------------------------
// clampI32: dst[i] = min(max(dst[i], 0), max), in place.
// ---------------------------------------------------------------------

// func clampI32Vec(dst []int32, max int32) (n int)
// SSE2 has no packed signed 32-bit min/max; build them from PCMPGTL
// select masks.
TEXT ·clampI32Vec(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL   max+24(FP), AX
	MOVQ   AX, X1
	PSHUFL $0x00, X1, X1
	PXOR   X2, X2
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU   (DI)(CX*4), X0
	MOVOU   X2, X3
	PCMPGTL X0, X3           // all-ones where 0 > v
	PANDN   X0, X3           // v, or 0 where negative
	MOVOU   X3, X4
	PCMPGTL X1, X4           // all-ones where v > max
	MOVOU   X4, X5
	PAND    X1, X5           // max where over
	PANDN   X3, X4           // v where not over
	POR     X5, X4
	MOVOU   X4, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+32(FP)
	RET

// ---------------------------------------------------------------------
// il2: dst[2i] = even[i], dst[2i+1] = odd[i] for i < len(odd) — the
// interleave step of the inverse lifting lines. Pure data movement, so
// the float variants jump to the int bodies (identical frame layout).
// ---------------------------------------------------------------------

// func il2I32Vec(dst, even, odd []int32) (n int)
TEXT ·il2I32Vec(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ even_base+24(FP), SI
	MOVQ odd_base+48(FP), R8
	MOVQ odd_len+56(FP), DX
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVOU (SI)(CX*4), X0     // e0..e3
	MOVOU (R8)(CX*4), X1     // o0..o3
	MOVOU X0, X2
	PUNPCKLLQ X1, X2         // e0,o0,e1,o1
	PUNPCKHLQ X1, X0         // e2,o2,e3,o3
	MOVQ CX, BX
	SHLQ $1, BX
	MOVOU X2, (DI)(BX*4)
	MOVOU X0, 16(DI)(BX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+72(FP)
	RET

// func il2F32Vec(dst, even, odd []float32) (n int)
TEXT ·il2F32Vec(SB), NOSPLIT, $0-80
	JMP ·il2I32Vec(SB)

// ---------------------------------------------------------------------
// dl2: even[i] = src[2i], odd[i] = src[2i+1] for i < len(odd) — the
// split step of the forward lifting lines. SHUFPS picks lanes 0,2
// (0x88) or 1,3 (0xDD) of two source vectors without touching the bits,
// so the float variants jump to the int bodies like il2.
// ---------------------------------------------------------------------

// func dl2I32Vec(even, odd, src []int32) (n int)
TEXT ·dl2I32Vec(SB), NOSPLIT, $0-80
	MOVQ even_base+0(FP), DI
	MOVQ odd_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ odd_len+32(FP), DX
	MOVQ DX, AX
	ANDQ $-4, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVQ CX, BX
	SHLQ $1, BX
	MOVUPS (SI)(BX*4), X0     // s0..s3
	MOVUPS 16(SI)(BX*4), X1   // s4..s7
	MOVAPS X0, X2
	SHUFPS $0x88, X1, X2      // s0,s2,s4,s6
	SHUFPS $0xDD, X1, X0      // s1,s3,s5,s7
	MOVUPS X2, (DI)(CX*4)
	MOVUPS X0, (R8)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+72(FP)
	RET

// func dl2F32Vec(even, odd, src []float32) (n int)
TEXT ·dl2F32Vec(SB), NOSPLIT, $0-80
	JMP ·dl2I32Vec(SB)
