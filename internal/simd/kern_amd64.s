//go:build amd64 && !noasm

#include "textflag.h"

// Vector kernels for the hot elementwise loops of the encoder.
//
// Conventions (see DESIGN.md §7):
//   - Every kernel processes the longest whole-vector prefix of the row
//     (n &^ 7 elements for AVX2, n &^ 3 for SSE2) and returns that count
//     in n; the Go wrapper runs the scalar oracle over the tail.
//   - All memory accesses use unaligned loads/stores (VMOVUPS / VMOVDQU /
//     MOVUPS / MOVOU), so callers may pass slices at any offset.
//   - Float kernels use only packed add/sub/mul — never FMA — so every
//     lane performs the same sequence of IEEE-754 float32 roundings as
//     the Go scalar loop and results are bit-identical.
//   - SSE2 arithmetic never takes a memory operand (m128 forms require
//     16-byte alignment); operands are loaded with MOVUPS/MOVOU first.
//   - AVX2 kernels end with VZEROUPPER to avoid SSE/AVX transition
//     stalls in the surrounding Go code.

// ---------------------------------------------------------------------
// addMulF32: dst[i] = a[i] + k*(b[i]+c[i])
// ---------------------------------------------------------------------

// func addMulF32AVX2(dst, a, b, c []float32, k float32) (n int)
TEXT ·addMulF32AVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	VBROADCASTSS k+96(FP), Y0
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS (R8)(CX*4), Y1
	VADDPS  (R9)(CX*4), Y1, Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (SI)(CX*4), Y1, Y1
	VMOVUPS Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+104(FP)
	RET

// func addMulF32SSE2(dst, a, b, c []float32, k float32) (n int)
TEXT ·addMulF32SSE2(SB), NOSPLIT, $0-112
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

// func addMulScaleF32AVX2(s, b, c []float32, k, scale float32) (n int)
TEXT ·addMulScaleF32AVX2(SB), NOSPLIT, $0-88
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), DX
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), R9
	VBROADCASTSS k+72(FP), Y0
	VBROADCASTSS scale+76(FP), Y2
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS (R8)(CX*4), Y1
	VADDPS  (R9)(CX*4), Y1, Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI)(CX*4), Y1, Y1
	VMULPS  Y2, Y1, Y1
	VMOVUPS Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+80(FP)
	RET

// func addMulScaleF32SSE2(s, b, c []float32, k, scale float32) (n int)
TEXT ·addMulScaleF32SSE2(SB), NOSPLIT, $0-88
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

// func mulConstF32AVX2(dst, src []float32, k float32) (n int)
TEXT ·mulConstF32AVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS k+48(FP), Y0
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS (SI)(CX*4), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+56(FP)
	RET

// func mulConstF32SSE2(dst, src []float32, k float32) (n int)
TEXT ·mulConstF32SSE2(SB), NOSPLIT, $0-64
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

// func quantF32AVX2(dst []int32, src []float32, inv float32) (n int)
TEXT ·quantF32AVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	VBROADCASTSS inv+48(FP), Y0
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS    (SI)(CX*4), Y1
	VMULPS     Y0, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VMOVDQU    Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+56(FP)
	RET

// func quantF32SSE2(dst []int32, src []float32, inv float32) (n int)
TEXT ·quantF32SSE2(SB), NOSPLIT, $0-64
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

// func ictFwdAVX2(r, g, b []int32, y, cb, cr []float32, p *ICTParams) (n int)
TEXT ·ictFwdAVX2(SB), NOSPLIT, $0-160
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), DX
	MOVQ g_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVQ y_base+72(FP), R10
	MOVQ cb_base+96(FP), R11
	MOVQ cr_base+120(FP), R12
	MOVQ p+144(FP), BX
	VBROADCASTSS 0(BX), Y15  // off
	VBROADCASTSS 4(BX), Y6   // YR
	VBROADCASTSS 8(BX), Y7   // YG
	VBROADCASTSS 12(BX), Y8  // YB
	VBROADCASTSS 16(BX), Y9  // CbR
	VBROADCASTSS 20(BX), Y10 // CbG
	VBROADCASTSS 24(BX), Y11 // CbB
	VBROADCASTSS 28(BX), Y12 // CrR
	VBROADCASTSS 32(BX), Y13 // CrG
	VBROADCASTSS 36(BX), Y14 // CrB
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VCVTDQ2PS (SI)(CX*4), Y0
	VSUBPS    Y15, Y0, Y0    // rr
	VCVTDQ2PS (R8)(CX*4), Y1
	VSUBPS    Y15, Y1, Y1    // gg
	VCVTDQ2PS (R9)(CX*4), Y2
	VSUBPS    Y15, Y2, Y2    // bb

	VMULPS Y0, Y6, Y3        // YR*rr
	VMULPS Y1, Y7, Y4        // YG*gg
	VADDPS Y4, Y3, Y3
	VMULPS Y2, Y8, Y4        // YB*bb
	VADDPS Y4, Y3, Y3
	VMOVUPS Y3, (R10)(CX*4)

	VMULPS Y0, Y9, Y3
	VMULPS Y1, Y10, Y4
	VADDPS Y4, Y3, Y3
	VMULPS Y2, Y11, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS Y3, (R11)(CX*4)

	VMULPS Y0, Y12, Y3
	VMULPS Y1, Y13, Y4
	VADDPS Y4, Y3, Y3
	VMULPS Y2, Y14, Y4
	VADDPS Y4, Y3, Y3
	VMOVUPS Y3, (R12)(CX*4)

	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+152(FP)
	RET

// func ictFwdSSE2(r, g, b []int32, y, cb, cr []float32, p *ICTParams) (n int)
TEXT ·ictFwdSSE2(SB), NOSPLIT, $0-160
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

// func addShr1I32AVX2(dst, a, b, c []int32) (n int)
TEXT ·addShr1I32AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1
	VPADDD  (R9)(CX*4), Y1, Y1
	VPSRAD  $1, Y1, Y1
	VPADDD  (SI)(CX*4), Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+96(FP)
	RET

// func addShr1I32SSE2(dst, a, b, c []int32) (n int)
TEXT ·addShr1I32SSE2(SB), NOSPLIT, $0-104
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

// func subShr1I32AVX2(dst, a, b, c []int32) (n int)
TEXT ·subShr1I32AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1
	VPADDD  (R9)(CX*4), Y1, Y1
	VPSRAD  $1, Y1, Y1
	VMOVDQU (SI)(CX*4), Y2
	VPSUBD  Y1, Y2, Y2
	VMOVDQU Y2, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+96(FP)
	RET

// func subShr1I32SSE2(dst, a, b, c []int32) (n int)
TEXT ·subShr1I32SSE2(SB), NOSPLIT, $0-104
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

// func addShr2I32AVX2(dst, a, b, c []int32) (n int)
TEXT ·addShr2I32AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	VPCMPEQD Y7, Y7, Y7
	VPSRLD   $31, Y7, Y7
	VPADDD   Y7, Y7, Y7      // 2 in every lane
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1
	VPADDD  (R9)(CX*4), Y1, Y1
	VPADDD  Y7, Y1, Y1
	VPSRAD  $2, Y1, Y1
	VPADDD  (SI)(CX*4), Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+96(FP)
	RET

// func addShr2I32SSE2(dst, a, b, c []int32) (n int)
TEXT ·addShr2I32SSE2(SB), NOSPLIT, $0-104
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

// func subShr2I32AVX2(dst, a, b, c []int32) (n int)
TEXT ·subShr2I32AVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	MOVQ c_base+72(FP), R9
	VPCMPEQD Y7, Y7, Y7
	VPSRLD   $31, Y7, Y7
	VPADDD   Y7, Y7, Y7      // 2 in every lane
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1
	VPADDD  (R9)(CX*4), Y1, Y1
	VPADDD  Y7, Y1, Y1
	VPSRAD  $2, Y1, Y1
	VMOVDQU (SI)(CX*4), Y2
	VPSUBD  Y1, Y2, Y2
	VMOVDQU Y2, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+96(FP)
	RET

// func subShr2I32SSE2(dst, a, b, c []int32) (n int)
TEXT ·subShr2I32SSE2(SB), NOSPLIT, $0-104
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

// func addConstI32AVX2(dst []int32, k int32) (n int)
TEXT ·addConstI32AVX2(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL k+24(FP), AX
	MOVQ AX, X0
	VPBROADCASTD X0, Y0
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (DI)(CX*4), Y1
	VPADDD  Y0, Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+32(FP)
	RET

// func addConstI32SSE2(dst []int32, k int32) (n int)
TEXT ·addConstI32SSE2(SB), NOSPLIT, $0-40
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

// func rctFwdAVX2(r, g, b []int32, off int32) (n int)
TEXT ·rctFwdAVX2(SB), NOSPLIT, $0-88
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), DX
	MOVQ g_base+24(FP), R8
	MOVQ b_base+48(FP), R9
	MOVL off+72(FP), AX
	MOVQ AX, X7
	VPBROADCASTD X7, Y7
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (SI)(CX*4), Y0
	VPSUBD  Y7, Y0, Y0       // rr
	VMOVDQU (R8)(CX*4), Y1
	VPSUBD  Y7, Y1, Y1       // gg
	VMOVDQU (R9)(CX*4), Y2
	VPSUBD  Y7, Y2, Y2       // bb
	VPADDD  Y1, Y1, Y3       // 2*gg
	VPADDD  Y0, Y3, Y3
	VPADDD  Y2, Y3, Y3
	VPSRAD  $2, Y3, Y3       // y
	VPSUBD  Y1, Y2, Y4       // cb
	VPSUBD  Y1, Y0, Y5       // cr
	VMOVDQU Y3, (SI)(CX*4)
	VMOVDQU Y4, (R8)(CX*4)
	VMOVDQU Y5, (R9)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+80(FP)
	RET

// func rctFwdSSE2(r, g, b []int32, off int32) (n int)
TEXT ·rctFwdSSE2(SB), NOSPLIT, $0-88
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
//   fixScale:  dst[i] = fixMul(dst[i], k)
// ---------------------------------------------------------------------

// func fixAddMulAVX2(d, b, c []int32, k int32) (n int)
TEXT ·fixAddMulAVX2(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), DX
	MOVQ b_base+24(FP), R8
	MOVQ c_base+48(FP), R9
	MOVL k+72(FP), AX
	MOVQ AX, X12
	VPBROADCASTD X12, Y12
	VPCMPEQD Y13, Y13, Y13
	VPSRLD   $19, Y13, Y13   // 8191 = (1<<13)-1
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $31, Y14, Y14
	VPSLLD   $12, Y14, Y14   // 4096 = 1<<12
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1
	VPADDD  (R9)(CX*4), Y1, Y1 // s = b + c
	VPSRAD  $13, Y1, Y2        // sHi
	VPAND   Y13, Y1, Y3        // sLo
	VPMULLD Y12, Y2, Y2        // k*sHi (mod 2^32)
	VPMULLD Y12, Y3, Y3        // k*sLo (exact)
	VPADDD  Y14, Y3, Y3
	VPSRAD  $13, Y3, Y3
	VPADDD  Y3, Y2, Y2
	VPADDD  (DI)(CX*4), Y2, Y2
	VMOVDQU Y2, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+80(FP)
	RET

// func fixAddMulSSE2(d, b, c []int32, k int32) (n int)
// SSE2 has no packed 32-bit mullo; emulate with PMULULQ (pmuludq) on
// even/odd lanes and repack the low dwords — low 32 bits of an
// unsigned product equal the signed mullo.
TEXT ·fixAddMulSSE2(SB), NOSPLIT, $0-88
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

// func fixScaleAVX2(dst []int32, k int32) (n int)
TEXT ·fixScaleAVX2(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL k+24(FP), AX
	MOVQ AX, X12
	VPBROADCASTD X12, Y12
	VPCMPEQD Y13, Y13, Y13
	VPSRLD   $19, Y13, Y13   // 8191
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $31, Y14, Y14
	VPSLLD   $12, Y14, Y14   // 4096
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (DI)(CX*4), Y1   // s
	VPSRAD  $13, Y1, Y2      // sHi
	VPAND   Y13, Y1, Y3      // sLo
	VPMULLD Y12, Y2, Y2
	VPMULLD Y12, Y3, Y3
	VPADDD  Y14, Y3, Y3
	VPSRAD  $13, Y3, Y3
	VPADDD  Y3, Y2, Y2
	VMOVDQU Y2, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+32(FP)
	RET

// func fixScaleSSE2(dst []int32, k int32) (n int)
TEXT ·fixScaleSSE2(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL   k+24(FP), AX
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
	MOVOU (DI)(CX*4), X1     // s
	MOVOU X1, X4
	PSRAL $13, X4            // sHi
	PAND  X13, X1            // sLo

	MOVOU   X4, X2
	PSRLQ   $32, X2
	PMULULQ X12, X4
	PMULULQ X12, X2
	PSHUFL  $0x08, X4, X4
	PSHUFL  $0x08, X2, X2
	PUNPCKLLQ X2, X4         // k*sHi

	MOVOU   X1, X2
	PSRLQ   $32, X2
	PMULULQ X12, X1
	PMULULQ X12, X2
	PSHUFL  $0x08, X1, X1
	PSHUFL  $0x08, X2, X2
	PUNPCKLLQ X2, X1         // k*sLo

	PADDL X14, X1
	PSRAL $13, X1
	PADDL X1, X4
	MOVOU X4, (DI)(CX*4)
	ADDQ $4, CX
	JMP  loop
done:
	MOVQ AX, n+32(FP)
	RET

// ---------------------------------------------------------------------
// absOr: mag[i] = |coef[i]|, returning the running OR of all written
// magnitudes (bitLen(OR) == bitLen(max), which is all Tier-1 needs).
// ---------------------------------------------------------------------

// func absOrAVX2(mag []uint32, coef []int32) (n int, or uint32)
TEXT ·absOrAVX2(SB), NOSPLIT, $0-60
	MOVQ mag_base+0(FP), DI
	MOVQ mag_len+8(FP), DX
	MOVQ coef_base+24(FP), SI
	VPXOR X0, X0, X0
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VPABSD  (SI)(CX*4), Y1
	VMOVDQU Y1, (DI)(CX*4)
	VPOR    Y1, Y0, Y0
	ADDQ $8, CX
	JMP  loop
done:
	VEXTRACTI128 $1, Y0, X1
	VPOR    X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPOR    X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPOR    X1, X0, X0
	MOVQ X0, BX
	MOVL BX, or+56(FP)
	MOVQ AX, n+48(FP)
	VZEROUPPER
	RET

// func absOrSSE2(mag []uint32, coef []int32) (n int, or uint32)
TEXT ·absOrSSE2(SB), NOSPLIT, $0-60
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

// func orU32AVX2(dst, src []uint32) (n int)
TEXT ·orU32AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ src_base+24(FP), SI
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (SI)(CX*4), Y1
	VPOR    (DI)(CX*4), Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+48(FP)
	RET

// func orU32SSE2(dst, src []uint32) (n int)
TEXT ·orU32SSE2(SB), NOSPLIT, $0-56
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

// func signOrAVX2(flags []uint32, coef []int32, bit uint32) (n int)
TEXT ·signOrAVX2(SB), NOSPLIT, $0-64
	MOVQ flags_base+0(FP), DI
	MOVQ flags_len+8(FP), DX
	MOVQ coef_base+24(FP), SI
	MOVL bit+48(FP), AX
	MOVQ AX, X2
	VPBROADCASTD X2, Y2
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (SI)(CX*4), Y1
	VPSRAD  $31, Y1, Y1      // all-ones where negative
	VPAND   Y2, Y1, Y1
	VPOR    (DI)(CX*4), Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+56(FP)
	RET

// func signOrSSE2(flags []uint32, coef []int32, bit uint32) (n int)
TEXT ·signOrSSE2(SB), NOSPLIT, $0-64
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

// func planeMaskAVX2(nz, bit []uint64, mag []uint32, p uint) (n int)
TEXT ·planeMaskAVX2(SB), NOSPLIT, $0-88
	MOVQ nz_base+0(FP), DI
	MOVQ bit_base+24(FP), SI
	MOVQ mag_base+48(FP), BX
	MOVQ mag_len+56(FP), AX
	MOVQ p+72(FP), DX
	MOVQ DX, X2              // count p
	DECQ DX
	MOVQ DX, X3              // count p-1
	VPXOR Y4, Y4, Y4
	ANDQ $-8, AX
	XORQ CX, CX
	XORQ R10, R10            // nz word being built
	XORQ R11, R11            // bit word being built
loop:
	CMPQ CX, AX
	JGE  tail
	VMOVDQU   (BX)(CX*4), Y0
	VPSRLD    X2, Y0, Y1
	VPCMPEQD  Y4, Y1, Y1     // all ones where mag>>p == 0
	VMOVMSKPS Y1, R8
	XORQ      $0xFF, R8
	VPSRLD    X3, Y0, Y0
	VPSLLD    $31, Y0, Y0    // plane p-1's bit to the sign
	VMOVMSKPS Y0, R9
	SHLQ CX, R8              // shift counts are taken mod 64
	SHLQ CX, R9
	ORQ  R8, R10
	ORQ  R9, R11
	ADDQ $8, CX
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
	VZEROUPPER
	RET

// func planeMaskSSE2(nz, bit []uint64, mag []uint32, p uint) (n int)
TEXT ·planeMaskSSE2(SB), NOSPLIT, $0-88
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

// func dequantF32AVX2(dst []float32, src []int32, delta float32) (n int)
TEXT ·dequantF32AVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	VBROADCASTSS delta+48(FP), Y0
	MOVL $0x3F000000, AX     // 0.5f
	MOVQ AX, X1
	VPBROADCASTD X1, Y8
	MOVL $0x80000000, AX     // sign bit
	MOVQ AX, X1
	VPBROADCASTD X1, Y9
	VPXOR Y10, Y10, Y10      // zero
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU   (SI)(CX*4), Y1 // q
	VCVTDQ2PS Y1, Y2         // float32(q)
	VPAND     Y9, Y1, Y3     // sign bit of q
	VPOR      Y8, Y3, Y3     // ±0.5
	VADDPS    Y3, Y2, Y2
	VMULPS    Y0, Y2, Y2     // * delta
	VPCMPEQD  Y10, Y1, Y4    // all-ones where q == 0
	VPANDN    Y2, Y4, Y2     // force 0 there
	VMOVUPS   Y2, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+56(FP)
	RET

// func dequantF32SSE2(dst []float32, src []int32, delta float32) (n int)
TEXT ·dequantF32SSE2(SB), NOSPLIT, $0-64
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

// func rctInvAVX2(y, cb, cr []int32, off int32) (n int)
TEXT ·rctInvAVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), SI
	MOVQ y_len+8(FP), DX
	MOVQ cb_base+24(FP), R8
	MOVQ cr_base+48(FP), R9
	MOVL off+72(FP), AX
	MOVQ AX, X7
	VPBROADCASTD X7, Y7
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (R8)(CX*4), Y1   // cb
	VMOVDQU (R9)(CX*4), Y2   // cr
	VPADDD  Y2, Y1, Y3
	VPSRAD  $2, Y3, Y3       // (cb+cr)>>2
	VMOVDQU (SI)(CX*4), Y0   // y
	VPSUBD  Y3, Y0, Y0       // g
	VPADDD  Y0, Y2, Y4       // r
	VPADDD  Y0, Y1, Y5       // b
	VPADDD  Y7, Y4, Y4
	VPADDD  Y7, Y0, Y0
	VPADDD  Y7, Y5, Y5
	VMOVDQU Y4, (SI)(CX*4)
	VMOVDQU Y0, (R8)(CX*4)
	VMOVDQU Y5, (R9)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+80(FP)
	RET

// func rctInvSSE2(y, cb, cr []int32, off int32) (n int)
TEXT ·rctInvSSE2(SB), NOSPLIT, $0-88
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

// func ictInvAVX2(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) (n int)
TEXT ·ictInvAVX2(SB), NOSPLIT, $0-160
	MOVQ y_base+0(FP), SI
	MOVQ y_len+8(FP), DX
	MOVQ cb_base+24(FP), R8
	MOVQ cr_base+48(FP), R9
	MOVQ r_base+72(FP), R10
	MOVQ g_base+96(FP), R11
	MOVQ b_base+120(FP), R12
	MOVQ p+144(FP), BX
	VBROADCASTSS 0(BX), Y15  // off
	VBROADCASTSS 4(BX), Y11  // RCr
	VBROADCASTSS 8(BX), Y12  // GCb
	VBROADCASTSS 12(BX), Y13 // GCr
	VBROADCASTSS 16(BX), Y14 // BCb
	MOVL $0x3F000000, AX     // 0.5f
	MOVQ AX, X8
	VPBROADCASTD X8, Y8
	MOVL $0x7FFFFFFF, AX     // abs mask
	MOVQ AX, X9
	VPBROADCASTD X9, Y9
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS (SI)(CX*4), Y0   // yy
	VMOVUPS (R8)(CX*4), Y1   // cb
	VMOVUPS (R9)(CX*4), Y2   // cr

	VMULPS Y2, Y11, Y3       // RCr*cr
	VADDPS Y3, Y0, Y3
	VADDPS Y15, Y3, Y3       // rf
	VPSRAD $31, Y3, Y4
	VPAND  Y9, Y3, Y3
	VADDPS Y8, Y3, Y3
	VCVTTPS2DQ Y3, Y3
	VPXOR  Y4, Y3, Y3
	VPSUBD Y4, Y3, Y3
	VMOVDQU Y3, (R10)(CX*4)

	VMULPS Y1, Y12, Y3       // GCb*cb
	VSUBPS Y3, Y0, Y3        // yy - GCb*cb
	VMULPS Y2, Y13, Y5       // GCr*cr
	VSUBPS Y5, Y3, Y3
	VADDPS Y15, Y3, Y3       // gf
	VPSRAD $31, Y3, Y4
	VPAND  Y9, Y3, Y3
	VADDPS Y8, Y3, Y3
	VCVTTPS2DQ Y3, Y3
	VPXOR  Y4, Y3, Y3
	VPSUBD Y4, Y3, Y3
	VMOVDQU Y3, (R11)(CX*4)

	VMULPS Y1, Y14, Y3       // BCb*cb
	VADDPS Y3, Y0, Y3
	VADDPS Y15, Y3, Y3       // bf
	VPSRAD $31, Y3, Y4
	VPAND  Y9, Y3, Y3
	VADDPS Y8, Y3, Y3
	VCVTTPS2DQ Y3, Y3
	VPXOR  Y4, Y3, Y3
	VPSUBD Y4, Y3, Y3
	VMOVDQU Y3, (R12)(CX*4)

	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+152(FP)
	RET

// func ictInvSSE2(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) (n int)
TEXT ·ictInvSSE2(SB), NOSPLIT, $0-160
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

// func roundAddF32AVX2(dst []int32, src []float32, off float32) (n int)
TEXT ·roundAddF32AVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	VBROADCASTSS off+48(FP), Y0
	MOVL $0x3F000000, AX     // 0.5f
	MOVQ AX, X8
	VPBROADCASTD X8, Y8
	MOVL $0x7FFFFFFF, AX     // abs mask
	MOVQ AX, X9
	VPBROADCASTD X9, Y9
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPS (SI)(CX*4), Y1
	VADDPS  Y0, Y1, Y1       // v = src + off
	VPSRAD  $31, Y1, Y4
	VPAND   Y9, Y1, Y1
	VADDPS  Y8, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VPXOR   Y4, Y1, Y1
	VPSUBD  Y4, Y1, Y1
	VMOVDQU Y1, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+56(FP)
	RET

// func roundAddF32SSE2(dst []int32, src []float32, off float32) (n int)
TEXT ·roundAddF32SSE2(SB), NOSPLIT, $0-64
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

// func clampI32AVX2(dst []int32, max int32) (n int)
TEXT ·clampI32AVX2(SB), NOSPLIT, $0-40
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVL max+24(FP), AX
	MOVQ AX, X1
	VPBROADCASTD X1, Y1
	VPXOR Y2, Y2, Y2
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (DI)(CX*4), Y0
	VPMAXSD Y2, Y0, Y0
	VPMINSD Y1, Y0, Y0
	VMOVDQU Y0, (DI)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+32(FP)
	RET

// func clampI32SSE2(dst []int32, max int32) (n int)
// SSE2 has no packed signed 32-bit min/max; build them from PCMPGTL
// select masks.
TEXT ·clampI32SSE2(SB), NOSPLIT, $0-40
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

// func il2I32AVX2(dst, even, odd []int32) (n int)
TEXT ·il2I32AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ even_base+24(FP), SI
	MOVQ odd_base+48(FP), R8
	MOVQ odd_len+56(FP), DX
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVDQU (SI)(CX*4), Y0   // e0..e7
	VMOVDQU (R8)(CX*4), Y1   // o0..o7
	VPUNPCKLDQ Y1, Y0, Y2    // e0,o0,e1,o1 | e4,o4,e5,o5
	VPUNPCKHDQ Y1, Y0, Y3    // e2,o2,e3,o3 | e6,o6,e7,o7
	VPERM2I128 $0x20, Y3, Y2, Y4
	VPERM2I128 $0x31, Y3, Y2, Y5
	MOVQ CX, BX
	SHLQ $1, BX
	VMOVDQU Y4, (DI)(BX*4)
	VMOVDQU Y5, 32(DI)(BX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+72(FP)
	RET

// func il2I32SSE2(dst, even, odd []int32) (n int)
TEXT ·il2I32SSE2(SB), NOSPLIT, $0-80
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

// func il2F32AVX2(dst, even, odd []float32) (n int)
TEXT ·il2F32AVX2(SB), NOSPLIT, $0-80
	JMP ·il2I32AVX2(SB)

// func il2F32SSE2(dst, even, odd []float32) (n int)
TEXT ·il2F32SSE2(SB), NOSPLIT, $0-80
	JMP ·il2I32SSE2(SB)

// ---------------------------------------------------------------------
// dl2: even[i] = src[2i], odd[i] = src[2i+1] for i < len(odd) — the
// split step of the forward lifting lines. SHUFPS picks lanes 0,2
// (0x88) or 1,3 (0xDD) of two source vectors without touching the bits,
// so the float variants jump to the int bodies like il2.
// ---------------------------------------------------------------------

// func dl2I32AVX2(even, odd, src []int32) (n int)
TEXT ·dl2I32AVX2(SB), NOSPLIT, $0-80
	MOVQ even_base+0(FP), DI
	MOVQ odd_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ odd_len+32(FP), DX
	MOVQ DX, AX
	ANDQ $-8, AX
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	MOVQ CX, BX
	SHLQ $1, BX
	VMOVDQU (SI)(BX*4), Y0    // s0..s7
	VMOVDQU 32(SI)(BX*4), Y1  // s8..s15
	VSHUFPS $0x88, Y1, Y0, Y2 // s0,s2,s8,s10 | s4,s6,s12,s14
	VSHUFPS $0xDD, Y1, Y0, Y3 // s1,s3,s9,s11 | s5,s7,s13,s15
	VPERMQ  $0xD8, Y2, Y2     // s0,s2,s4,s6,s8,s10,s12,s14
	VPERMQ  $0xD8, Y3, Y3     // s1,s3,s5,s7,s9,s11,s13,s15
	VMOVDQU Y2, (DI)(CX*4)
	VMOVDQU Y3, (R8)(CX*4)
	ADDQ $8, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, n+72(FP)
	RET

// func dl2I32SSE2(even, odd, src []int32) (n int)
TEXT ·dl2I32SSE2(SB), NOSPLIT, $0-80
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

// func dl2F32AVX2(even, odd, src []float32) (n int)
TEXT ·dl2F32AVX2(SB), NOSPLIT, $0-80
	JMP ·dl2I32AVX2(SB)

// func dl2F32SSE2(even, odd, src []float32) (n int)
TEXT ·dl2F32SSE2(SB), NOSPLIT, $0-80
	JMP ·dl2I32SSE2(SB)
