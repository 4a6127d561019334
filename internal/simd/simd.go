// Package simd is the ISA-aware kernel layer of the encoder: the hot
// elementwise row kernels of the pipeline (9/7 and 5/3 lifting steps,
// Q13 fixed-point lifting, the merged level-shift + color transforms,
// dead-zone quantization, the Tier-1 stripe-mask build and the HT
// encoder's plane bit sets), each calling the vector body this build
// compiles.
//
// This is the Go analogue of the paper's Section 4 argument: kernel
// cost is ISA-specific (the SPE's vector float multiply is one fast
// instruction while JasPer's Q13 integer multiply must be emulated), so
// the encoder prices each kernel against the actual vector hardware.
// On amd64 the package ships hand-written SSE2 assembly: SSE2 is the
// amd64 baseline and has the SPE's shape, 4 lanes of 32 bits with no
// packed 32-bit integer multiply. Every kernel keeps the original pure-Go loop as oracle and fallback, and
// every assembly path is bit-identical to it:
//
//   - Float kernels use only per-element add/mul (no FMA), so each
//     operation rounds exactly like the scalar IEEE float32 chain.
//   - Integer kernels use the same wrapping two's-complement adds and
//     arithmetic shifts as the Go loops.
//   - Float→int conversion uses packed truncation (CVTTPS2DQ), which
//     matches gc's scalar CVTTSS2SL on amd64, including the 0x80000000
//     out-of-range result.
//
// One kernel set per build, chosen by the build: there is no CPU probe
// and no runtime switch. On amd64 each row kernel's …Vec body is SSE2
// assembly; the `noasm` build tag (and every other GOARCH) compiles
// the package with no assembly at all, and each …Vec body is a stub
// that handles 0 elements. Kernel reports which set the build has.
//
// Convention: a …Vec body processes a whole-vector prefix of the row
// and returns how many elements it handled; the exported wrapper
// finishes the tail with the scalar loop. Rows need no alignment or
// length restrictions (unaligned slice offsets and lengths 0 and 1 are
// all valid), and in-place calls may alias only at identical indices
// (dst == a style), which every call site in this codebase satisfies.
package simd

// FixShift is the Q13 fixed-point fraction width of the fixed kernels;
// it must equal dwt.FixShift (pinned by a test there).
const FixShift = 13

// Kernel reports the name of the build's kernel set: "sse2" on amd64,
// "scalar" under the noasm tag and on every other GOARCH.
func Kernel() string { return kernelName }

// --- float32 kernels ---

// AddMulRow computes dst[i] = a[i] + k*(b[i]+c[i]) — the shape of the
// 9/7 lifting steps (dst may equal a for the in-place d += k*(e0+e1)
// form). All slices must be at least len(dst) long.
func AddMulRow(dst, a, b, c []float32, k float32) {
	i := 0
	n := len(dst)
	if len(a) >= n && len(b) >= n && len(c) >= n {
		i = addMulF32Vec(dst, a, b, c, k)
	}
	scalarAddMulF32(dst[i:], a[i:], b[i:], c[i:], k)
}

// AddMulScaleRow computes s[i] = (s[i] + k*(b[i]+c[i])) * scale — the
// final 9/7 lifting step with the 1/K scaling folded in.
func AddMulScaleRow(s, b, c []float32, k, scale float32) {
	i := 0
	n := len(s)
	if len(b) >= n && len(c) >= n {
		i = addMulScaleF32Vec(s, b, c, k, scale)
	}
	scalarAddMulScaleF32(s[i:], b[i:], c[i:], k, scale)
}

// MulConstRow computes dst[i] = src[i] * k (dst may equal src).
func MulConstRow(dst, src []float32, k float32) {
	i := 0
	if len(src) >= len(dst) {
		i = mulConstF32Vec(dst, src, k)
	}
	scalarMulConstF32(dst[i:], src[i:], k)
}

// QuantizeRow converts one row of 9/7 coefficients to sign-magnitude
// integers, dst[i] = trunc(src[i] * inv), truncation toward zero.
// len(dst) must be at least len(src).
func QuantizeRow(dst []int32, src []float32, inv float32) {
	i := 0
	if len(dst) >= len(src) {
		i = quantF32Vec(dst, src, inv)
	}
	scalarQuantF32(dst[i:], src[i:], inv)
}

// DequantRow is the inverse of QuantizeRow: midpoint reconstruction
// dst[i] = (src[i] ± 0.5) * delta with the sign of src[i], and exactly
// 0 where src[i] is 0. len(dst) must be at least len(src).
func DequantRow(dst []float32, src []int32, delta float32) {
	i := 0
	if len(dst) >= len(src) {
		i = dequantF32Vec(dst, src, delta)
	}
	scalarDequantF32(dst[i:], src[i:], delta)
}

// RoundAddRow computes dst[i] = round(src[i] + off) with halves rounded
// away from zero — the inverse level shift of a float component decoded
// without the color transform. len(dst) must be at least len(src).
func RoundAddRow(dst []int32, src []float32, off float32) {
	i := 0
	if len(dst) >= len(src) {
		i = roundAddF32Vec(dst, src, off)
	}
	scalarRoundAddF32(dst[i:], src[i:], off)
}

// ICTParams carries the level-shift offset and the nine ICT matrix
// weights for ForwardICTRow, in the order the kernel reads them.
type ICTParams struct {
	Off           float32
	YR, YG, YB    float32
	CbR, CbG, CbB float32
	CrR, CrG, CrB float32
}

// ForwardICTRow applies the merged level shift + irreversible color
// transform: integer (R,G,B) rows in, float (Y,Cb,Cr) rows out.
func ForwardICTRow(r, g, b []int32, y, cb, cr []float32, p *ICTParams) {
	i := 0
	n := len(r)
	if len(g) >= n && len(b) >= n && len(y) >= n && len(cb) >= n && len(cr) >= n {
		i = ictFwdVec(r, g, b, y, cb, cr, p)
	}
	scalarICTFwd(r[i:], g[i:], b[i:], y[i:], cb[i:], cr[i:], p)
}

// ICTInvParams carries the level-shift offset and the four inverse ICT
// weights (applied with the signs of the scalar expressions: R adds
// RCr·Cr, G subtracts GCb·Cb and GCr·Cr, B adds BCb·Cb).
type ICTInvParams struct {
	Off      float32
	RCr      float32
	GCb, GCr float32
	BCb      float32
}

// InverseICTRow applies the merged inverse irreversible color transform
// + level unshift: float (Y,Cb,Cr) rows in, rounded integer (R,G,B)
// rows out, halves rounded away from zero.
func InverseICTRow(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) {
	i := 0
	n := len(y)
	if len(cb) >= n && len(cr) >= n && len(r) >= n && len(g) >= n && len(b) >= n {
		i = ictInvVec(y, cb, cr, r, g, b, p)
	}
	scalarICTInv(y[i:], cb[i:], cr[i:], r[i:], g[i:], b[i:], p)
}

// --- int32 kernels ---

// AddShr1Row computes dst[i] = a[i] + ((b[i]+c[i])>>1) (5/3 un-lifting
// step shape; dst may equal a).
func AddShr1Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if len(a) >= n && len(b) >= n && len(c) >= n {
		i = addShr1I32Vec(dst, a, b, c)
	}
	scalarAddShr1I32(dst[i:], a[i:], b[i:], c[i:])
}

// SubShr1Row computes dst[i] = a[i] - ((b[i]+c[i])>>1) (the 5/3 high
// lifting step; dst may equal a).
func SubShr1Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if len(a) >= n && len(b) >= n && len(c) >= n {
		i = subShr1I32Vec(dst, a, b, c)
	}
	scalarSubShr1I32(dst[i:], a[i:], b[i:], c[i:])
}

// AddShr2Row computes dst[i] = a[i] + ((b[i]+c[i]+2)>>2) (the 5/3 low
// lifting step; dst may equal a).
func AddShr2Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if len(a) >= n && len(b) >= n && len(c) >= n {
		i = addShr2I32Vec(dst, a, b, c)
	}
	scalarAddShr2I32(dst[i:], a[i:], b[i:], c[i:])
}

// SubShr2Row computes dst[i] = a[i] - ((b[i]+c[i]+2)>>2) (5/3 low
// un-lifting; dst may equal a).
func SubShr2Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if len(a) >= n && len(b) >= n && len(c) >= n {
		i = subShr2I32Vec(dst, a, b, c)
	}
	scalarSubShr2I32(dst[i:], a[i:], b[i:], c[i:])
}

// AddConstRow computes dst[i] += k (the DC level shift with k = ±2^(d-1)).
func AddConstRow(dst []int32, k int32) {
	i := addConstI32Vec(dst, k)
	scalarAddConstI32(dst[i:], k)
}

// ForwardRCTRow applies the merged level shift + reversible color
// transform in place over (R,G,B) rows.
func ForwardRCTRow(r, g, b []int32, off int32) {
	i := 0
	n := len(r)
	if len(g) >= n && len(b) >= n {
		i = rctFwdVec(r, g, b, off)
	}
	scalarRCTFwd(r[i:], g[i:], b[i:], off)
}

// InverseRCTRow applies the merged inverse reversible color transform +
// level unshift in place over (Y,Cb,Cr) rows, leaving (R,G,B).
func InverseRCTRow(y, cb, cr []int32, off int32) {
	i := 0
	n := len(y)
	if len(cb) >= n && len(cr) >= n {
		i = rctInvVec(y, cb, cr, off)
	}
	scalarRCTInv(y[i:], cb[i:], cr[i:], off)
}

// ClampRow clamps dst[i] into [0, max] in place — the final sample
// range clamp after the inverse color transform.
func ClampRow(dst []int32, max int32) {
	i := clampI32Vec(dst, max)
	scalarClampI32(dst[i:], max)
}

// Interleave2Row merges deinterleaved low/high halves back into an
// interleaved row: dst[2i] = even[i], dst[2i+1] = odd[i] for
// i < len(odd) — the recombination step of the inverse lifting lines.
// len(even) must be at least len(odd) and len(dst) at least
// 2*len(odd); an odd-length row's final lone even sample is the
// caller's to place.
func Interleave2Row(dst, even, odd []int32) {
	i := 0
	n := len(odd)
	if len(even) >= n && len(dst) >= 2*n {
		i = il2I32Vec(dst, even, odd)
	}
	scalarInterleave2I32(dst[2*i:], even[i:], odd[i:])
}

// Interleave2FRow is Interleave2Row for float32 rows.
func Interleave2FRow(dst, even, odd []float32) {
	i := 0
	n := len(odd)
	if len(even) >= n && len(dst) >= 2*n {
		i = il2F32Vec(dst, even, odd)
	}
	scalarInterleave2F32(dst[2*i:], even[i:], odd[i:])
}

// Deinterleave2Row splits an interleaved row into its halves:
// even[i] = src[2i], odd[i] = src[2i+1] for i < len(odd) — the split
// step of the forward lifting lines. len(even) must be at least
// len(odd) and len(src) at least 2*len(odd); an odd-length row's final
// lone even sample is the caller's to place.
func Deinterleave2Row(even, odd, src []int32) {
	i := 0
	n := len(odd)
	if len(even) >= n && len(src) >= 2*n {
		i = dl2I32Vec(even, odd, src)
	}
	scalarDeinterleave2I32(even[i:], odd[i:], src[2*i:])
}

// Deinterleave2FRow is Deinterleave2Row for float32 rows.
func Deinterleave2FRow(even, odd, src []float32) {
	i := 0
	n := len(odd)
	if len(even) >= n && len(src) >= 2*n {
		i = dl2F32Vec(even, odd, src)
	}
	scalarDeinterleave2F32(even[i:], odd[i:], src[2*i:])
}

// FixAddMulRow computes d[i] += fixmul(k, b[i]+c[i]) in Q13 — the
// JasPer-style fixed-point 9/7 lifting step. The vector forms require
// |b[i]+c[i]| (after int32 wrap) ≤ 2^30, which every Q13 pipeline value
// satisfies; beyond that the 32-bit decomposition of the 64-bit product
// would overflow where the scalar loop does not.
func FixAddMulRow(d, b, c []int32, k int32) {
	i := 0
	n := len(d)
	if len(b) >= n && len(c) >= n {
		i = fixAddMulVec(d, b, c, k)
	}
	scalarFixAddMul(d[i:], b[i:], c[i:], k)
}

// --- Tier-1 stripe-mask kernels ---

// AbsOrRow writes mag[i] = |coef[i]| (two's-complement magnitude, so
// math.MinInt32 maps to 0x80000000 like the scalar loop) and returns
// the OR of all magnitudes written. len(coef) must be at least
// len(mag).
func AbsOrRow(mag []uint32, coef []int32) uint32 {
	i := 0
	var or uint32
	if len(coef) >= len(mag) {
		i, or = absOrVec(mag, coef)
	}
	return or | scalarAbsOr(mag[i:], coef[i:])
}

// OrRow computes dst[i] |= src[i] — folding a magnitude row into the
// Tier-1 stripe-column OR masks.
func OrRow(dst, src []uint32) {
	i := 0
	if len(src) >= len(dst) {
		i = orU32Vec(dst, src)
	}
	scalarOrU32(dst[i:], src[i:])
}

// SignOrRow computes flags[i] |= bit for every i with coef[i] < 0 —
// seeding the Tier-1 sign flags from a coefficient row. len(coef) must
// be at least len(flags).
func SignOrRow(flags []uint32, coef []int32, bit uint32) {
	i := 0
	if len(coef) >= len(flags) {
		i = signOrVec(flags, coef, bit)
	}
	scalarSignOr(flags[i:], coef[i:], bit)
}

// PlaneMaskRow builds the two per-row bit sets of an HT block at plane
// p (p < 32), 64 samples to a word, LSB first: bit i of nz is set when
// mag[i]>>p != 0 (significant at plane p), and bit i of bit is plane
// p−1's bit of mag[i], (mag[i]>>(p−1))&1, which is 0 for every i when
// p = 0. Every word covering mag is written, and bits at or past
// len(mag) in the last word are zero. nz and bit must each hold at
// least (len(mag)+63)/64 words.
func PlaneMaskRow(nz, bit []uint64, mag []uint32, p uint) {
	i := 0
	if nw := (len(mag) + 63) >> 6; len(nz) >= nw && len(bit) >= nw {
		i = planeMaskVec(nz, bit, mag, p)
	}
	if i < len(mag) {
		scalarPlaneMask(nz, bit, mag, p, i)
	}
}
