// Package simd is the ISA-aware kernel layer of the encoder: the hot
// elementwise row kernels of the pipeline (9/7 and 5/3 lifting steps,
// Q13 fixed-point lifting, the merged level-shift + color transforms,
// dead-zone quantization, the Tier-1 stripe-mask build and the HT
// encoder's plane bit sets) behind a dispatch table selected once at
// init from the CPU's vector features.
//
// This is the Go analogue of the paper's Section 4 argument: kernel
// cost is ISA-specific (the SPE's vector float multiply is one fast
// instruction while JasPer's Q13 integer multiply must be emulated), so
// the encoder prices each kernel against the actual vector hardware.
// On amd64 the package ships hand-written AVX2 and SSE2 assembly; every
// kernel keeps the original pure-Go loop as oracle and fallback, and
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
// Dispatch: init probes CPUID (AVX2 needs OS-enabled YMM state; SSE2 is
// amd64 baseline) and installs the widest kernel set. The `noasm` build
// tag compiles the package with no assembly at all, and the J2K_NOSIMD
// environment variable (set to anything but "0") forces the scalar set
// at startup without rebuilding. Use/Kernel/Available exist so tests
// and tools can pin or report the active set.
//
// Convention: an assembly kernel processes a whole-vector prefix of the
// row and returns how many elements it handled; the exported wrapper
// finishes the tail with the scalar loop. Rows need no alignment or
// length restrictions (unaligned slice offsets and lengths 0 and 1 are
// all valid), and in-place calls may alias only at identical indices
// (dst == a style), which every call site in this codebase satisfies.
package simd

import (
	"fmt"
	"sync/atomic"
)

// FixShift is the Q13 fixed-point fraction width of the fixed kernels;
// it must equal dwt.FixShift (pinned by a test there).
const FixShift = 13

// kernels is one dispatchable implementation set. A nil entry means
// "no vector form; use the scalar loop".
type kernels struct {
	name string

	addMulF32      func(dst, a, b, c []float32, k float32) int
	addMulScaleF32 func(s, b, c []float32, k, scale float32) int
	mulConstF32    func(dst, src []float32, k float32) int
	quantF32       func(dst []int32, src []float32, inv float32) int
	dequantF32     func(dst []float32, src []int32, delta float32) int
	ictFwd         func(r, g, b []int32, y, cb, cr []float32, p *ICTParams) int
	ictInv         func(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) int
	roundAddF32    func(dst []int32, src []float32, off float32) int

	addShr1I32  func(dst, a, b, c []int32) int
	subShr1I32  func(dst, a, b, c []int32) int
	addShr2I32  func(dst, a, b, c []int32) int
	subShr2I32  func(dst, a, b, c []int32) int
	addConstI32 func(dst []int32, k int32) int
	rctFwd      func(r, g, b []int32, off int32) int
	rctInv      func(y, cb, cr []int32, off int32) int
	clampI32    func(dst []int32, max int32) int
	fixAddMul   func(d, b, c []int32, k int32) int
	fixScale    func(dst []int32, k int32) int
	il2I32      func(dst, even, odd []int32) int
	il2F32      func(dst, even, odd []float32) int
	dl2I32      func(even, odd, src []int32) int
	dl2F32      func(even, odd, src []float32) int

	absOr     func(mag []uint32, coef []int32) (int, uint32)
	orU32     func(dst, src []uint32) int
	signOr    func(flags []uint32, coef []int32, bit uint32) int
	planeMask func(nz, bit []uint64, mag []uint32, p uint) int
}

// scalarSet has every vector entry nil: the pure-Go oracle.
var scalarSet = kernels{name: "scalar"}

// active is the installed kernel set. Reads are one atomic load (a
// plain MOV on amd64); writes happen at init and from Use, which is a
// test/startup hook and must not race with in-flight encodes.
var active atomic.Pointer[kernels]

// available lists the selectable kernel sets, narrowest first
// ("scalar" always; then "sse2", "avx2" as detected). detect()
// (per-platform) fills it and installs the widest allowed set.
var available []*kernels

func init() { detect() }

// Kernel reports the name of the active kernel set: "avx2", "sse2" or
// "scalar".
func Kernel() string { return active.Load().name }

// Available lists the kernel set names selectable on this machine.
func Available() []string {
	out := make([]string, len(available))
	for i, k := range available {
		out[i] = k.name
	}
	return out
}

// Use installs the named kernel set. It exists for tests and tools
// (differential runs, the determinism matrix); do not call it while an
// encode is in flight.
func Use(name string) error {
	for _, k := range available {
		if k.name == name {
			active.Store(k)
			return nil
		}
	}
	return fmt.Errorf("simd: kernel set %q not available (have %v)", name, Available())
}

// --- float32 kernels ---

// AddMulRow computes dst[i] = a[i] + k*(b[i]+c[i]) — the shape of the
// 9/7 lifting steps (dst may equal a for the in-place d += k*(e0+e1)
// form). All slices must be at least len(dst) long.
func AddMulRow(dst, a, b, c []float32, k float32) {
	i := 0
	n := len(dst)
	if f := active.Load().addMulF32; f != nil && len(a) >= n && len(b) >= n && len(c) >= n {
		i = f(dst, a, b, c, k)
	}
	scalarAddMulF32(dst[i:], a[i:], b[i:], c[i:], k)
}

// AddMulScaleRow computes s[i] = (s[i] + k*(b[i]+c[i])) * scale — the
// final 9/7 lifting step with the 1/K scaling folded in.
func AddMulScaleRow(s, b, c []float32, k, scale float32) {
	i := 0
	n := len(s)
	if f := active.Load().addMulScaleF32; f != nil && len(b) >= n && len(c) >= n {
		i = f(s, b, c, k, scale)
	}
	scalarAddMulScaleF32(s[i:], b[i:], c[i:], k, scale)
}

// MulConstRow computes dst[i] = src[i] * k (dst may equal src).
func MulConstRow(dst, src []float32, k float32) {
	i := 0
	if f := active.Load().mulConstF32; f != nil && len(src) >= len(dst) {
		i = f(dst, src, k)
	}
	scalarMulConstF32(dst[i:], src[i:], k)
}

// QuantizeRow converts one row of 9/7 coefficients to sign-magnitude
// integers, dst[i] = trunc(src[i] * inv), truncation toward zero.
// len(dst) must be at least len(src).
func QuantizeRow(dst []int32, src []float32, inv float32) {
	i := 0
	if f := active.Load().quantF32; f != nil && len(dst) >= len(src) {
		i = f(dst, src, inv)
	}
	scalarQuantF32(dst[i:], src[i:], inv)
}

// DequantRow is the inverse of QuantizeRow: midpoint reconstruction
// dst[i] = (src[i] ± 0.5) * delta with the sign of src[i], and exactly
// 0 where src[i] is 0. len(dst) must be at least len(src).
func DequantRow(dst []float32, src []int32, delta float32) {
	i := 0
	if f := active.Load().dequantF32; f != nil && len(dst) >= len(src) {
		i = f(dst, src, delta)
	}
	scalarDequantF32(dst[i:], src[i:], delta)
}

// RoundAddRow computes dst[i] = round(src[i] + off) with halves rounded
// away from zero — the inverse level shift of a float component decoded
// without the color transform. len(dst) must be at least len(src).
func RoundAddRow(dst []int32, src []float32, off float32) {
	i := 0
	if f := active.Load().roundAddF32; f != nil && len(dst) >= len(src) {
		i = f(dst, src, off)
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
	if f := active.Load().ictFwd; f != nil &&
		len(g) >= n && len(b) >= n && len(y) >= n && len(cb) >= n && len(cr) >= n {
		i = f(r, g, b, y, cb, cr, p)
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
	if f := active.Load().ictInv; f != nil &&
		len(cb) >= n && len(cr) >= n && len(r) >= n && len(g) >= n && len(b) >= n {
		i = f(y, cb, cr, r, g, b, p)
	}
	scalarICTInv(y[i:], cb[i:], cr[i:], r[i:], g[i:], b[i:], p)
}

// --- int32 kernels ---

// AddShr1Row computes dst[i] = a[i] + ((b[i]+c[i])>>1) (5/3 un-lifting
// step shape; dst may equal a).
func AddShr1Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if f := active.Load().addShr1I32; f != nil && len(a) >= n && len(b) >= n && len(c) >= n {
		i = f(dst, a, b, c)
	}
	scalarAddShr1I32(dst[i:], a[i:], b[i:], c[i:])
}

// SubShr1Row computes dst[i] = a[i] - ((b[i]+c[i])>>1) (the 5/3 high
// lifting step; dst may equal a).
func SubShr1Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if f := active.Load().subShr1I32; f != nil && len(a) >= n && len(b) >= n && len(c) >= n {
		i = f(dst, a, b, c)
	}
	scalarSubShr1I32(dst[i:], a[i:], b[i:], c[i:])
}

// AddShr2Row computes dst[i] = a[i] + ((b[i]+c[i]+2)>>2) (the 5/3 low
// lifting step; dst may equal a).
func AddShr2Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if f := active.Load().addShr2I32; f != nil && len(a) >= n && len(b) >= n && len(c) >= n {
		i = f(dst, a, b, c)
	}
	scalarAddShr2I32(dst[i:], a[i:], b[i:], c[i:])
}

// SubShr2Row computes dst[i] = a[i] - ((b[i]+c[i]+2)>>2) (5/3 low
// un-lifting; dst may equal a).
func SubShr2Row(dst, a, b, c []int32) {
	i := 0
	n := len(dst)
	if f := active.Load().subShr2I32; f != nil && len(a) >= n && len(b) >= n && len(c) >= n {
		i = f(dst, a, b, c)
	}
	scalarSubShr2I32(dst[i:], a[i:], b[i:], c[i:])
}

// AddConstRow computes dst[i] += k (the DC level shift with k = ±2^(d-1)).
func AddConstRow(dst []int32, k int32) {
	i := 0
	if f := active.Load().addConstI32; f != nil {
		i = f(dst, k)
	}
	scalarAddConstI32(dst[i:], k)
}

// ForwardRCTRow applies the merged level shift + reversible color
// transform in place over (R,G,B) rows.
func ForwardRCTRow(r, g, b []int32, off int32) {
	i := 0
	n := len(r)
	if f := active.Load().rctFwd; f != nil && len(g) >= n && len(b) >= n {
		i = f(r, g, b, off)
	}
	scalarRCTFwd(r[i:], g[i:], b[i:], off)
}

// InverseRCTRow applies the merged inverse reversible color transform +
// level unshift in place over (Y,Cb,Cr) rows, leaving (R,G,B).
func InverseRCTRow(y, cb, cr []int32, off int32) {
	i := 0
	n := len(y)
	if f := active.Load().rctInv; f != nil && len(cb) >= n && len(cr) >= n {
		i = f(y, cb, cr, off)
	}
	scalarRCTInv(y[i:], cb[i:], cr[i:], off)
}

// ClampRow clamps dst[i] into [0, max] in place — the final sample
// range clamp after the inverse color transform.
func ClampRow(dst []int32, max int32) {
	i := 0
	if f := active.Load().clampI32; f != nil {
		i = f(dst, max)
	}
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
	if f := active.Load().il2I32; f != nil && len(even) >= n && len(dst) >= 2*n {
		i = f(dst, even, odd)
	}
	scalarInterleave2I32(dst[2*i:], even[i:], odd[i:])
}

// Interleave2FRow is Interleave2Row for float32 rows.
func Interleave2FRow(dst, even, odd []float32) {
	i := 0
	n := len(odd)
	if f := active.Load().il2F32; f != nil && len(even) >= n && len(dst) >= 2*n {
		i = f(dst, even, odd)
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
	if f := active.Load().dl2I32; f != nil && len(even) >= n && len(src) >= 2*n {
		i = f(even, odd, src)
	}
	scalarDeinterleave2I32(even[i:], odd[i:], src[2*i:])
}

// Deinterleave2FRow is Deinterleave2Row for float32 rows.
func Deinterleave2FRow(even, odd, src []float32) {
	i := 0
	n := len(odd)
	if f := active.Load().dl2F32; f != nil && len(even) >= n && len(src) >= 2*n {
		i = f(even, odd, src)
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
	if f := active.Load().fixAddMul; f != nil && len(b) >= n && len(c) >= n {
		i = f(d, b, c, k)
	}
	scalarFixAddMul(d[i:], b[i:], c[i:], k)
}

// FixScaleRow computes dst[i] = fixmul(dst[i], k) in Q13, with the same
// |dst[i]| ≤ 2^30 domain as FixAddMulRow.
func FixScaleRow(dst []int32, k int32) {
	i := 0
	if f := active.Load().fixScale; f != nil {
		i = f(dst, k)
	}
	scalarFixScale(dst[i:], k)
}

// --- Tier-1 stripe-mask kernels ---

// AbsOrRow writes mag[i] = |coef[i]| (two's-complement magnitude, so
// math.MinInt32 maps to 0x80000000 like the scalar loop) and returns
// the OR of all magnitudes written. len(coef) must be at least
// len(mag).
func AbsOrRow(mag []uint32, coef []int32) uint32 {
	i := 0
	var or uint32
	if f := active.Load().absOr; f != nil && len(coef) >= len(mag) {
		i, or = f(mag, coef)
	}
	return or | scalarAbsOr(mag[i:], coef[i:])
}

// OrRow computes dst[i] |= src[i] — folding a magnitude row into the
// Tier-1 stripe-column OR masks.
func OrRow(dst, src []uint32) {
	i := 0
	if f := active.Load().orU32; f != nil && len(src) >= len(dst) {
		i = f(dst, src)
	}
	scalarOrU32(dst[i:], src[i:])
}

// SignOrRow computes flags[i] |= bit for every i with coef[i] < 0 —
// seeding the Tier-1 sign flags from a coefficient row. len(coef) must
// be at least len(flags).
func SignOrRow(flags []uint32, coef []int32, bit uint32) {
	i := 0
	if f := active.Load().signOr; f != nil && len(coef) >= len(flags) {
		i = f(flags, coef, bit)
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
		if f := active.Load().planeMask; f != nil {
			i = f(nz, bit, mag, p)
		}
	}
	if i < len(mag) {
		scalarPlaneMask(nz, bit, mag, p, i)
	}
}
