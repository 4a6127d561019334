package cell

import "j2kcell/internal/sim"

// SPE instruction latencies from Table 1 of the paper, plus the even-
// pipeline shift latency needed to price the fixed-point emulation.
const (
	LatMpyh = 7 // two-byte integer multiply high
	LatMpyu = 7 // two-byte integer multiply unsigned
	LatA    = 2 // add word
	LatFm   = 6 // single-precision floating-point multiply
	LatShl  = 4 // shift left word (even pipeline, like rotate)
)

// VectorLanes is the SPE SIMD width for 4-byte elements (128-bit regs).
const VectorLanes = 4

// FixedMul32Instrs is the instruction count to emulate a 32-bit integer
// multiply on the SPE, which has only 16-bit multipliers: the classic
// sequence is mpyh(a,b) + mpyh(b,a) + mpyu(a,b) summed with two adds.
const FixedMul32Instrs = 5

// FixedMul32Latency is the dependent-chain latency of that emulation
// as the in-order SPU actually schedules it (internal/spu derives the
// same number): the second mpyh issues one even-pipe cycle after the
// first (completing at 1+7), then the two dependent adds chain.
const FixedMul32Latency = 1 + LatMpyh + 2*LatA // 12 cycles; see spu.Mul32Kernel

// FloatMul32Latency is one fm instruction.
const FloatMul32Latency = LatFm // 6 cycles

// Per-kernel cost constants, in cycles per processed element, for the
// SPE (vectorized over 4 lanes) and the PPE (scalar, with average cache
// behaviour folded in). The derivations assume the SPE dual-issues one
// arithmetic and one load/store/shuffle per cycle when software-
// pipelined, so a kernel with k arithmetic ops per element costs about
// k/4 cycles per element plus shuffle overhead for any lane
// rearrangement; PPE constants reflect scalar issue without SIMD (the
// baseline JasPer code is scalar) plus L2 miss stalls on the
// column-major walks the paper highlights. The absolute values are
// calibrated (see EXPERIMENTS.md) so that the stage shares and the
// PPE:SPE per-kernel ratios reproduce the relationships reported in the
// paper's Section 5: Tier-1 runs faster on the PPE than on one SPE,
// one SPE beats the PPE "by far" on the DWT, and at one SPE the overall
// lossless time roughly equals the PPE-only time.
type KernelCosts struct {
	ReadConv float64 // stream type conversion to 4-byte int
	ShiftMCT float64 // merged level shift + inter-component transform
	DWT53    float64 // one 5/3 lifting direction, per sample per level
	DWT97    float64 // one 9/7 float lifting direction, per sample per level
	DWT97Fix float64 // 9/7 with JasPer fixed-point arithmetic
	DWTConv  float64 // convolution-based 9/7 (Muta baseline), per tap-heavy sample
	Quant    float64 // deadzone scalar quantization
	T1Scan   float64 // Tier-1, per coefficient examined in a pass
	T1Visit  float64 // Tier-1, per MQ decision actually coded
	T2Byte   float64 // Tier-2 packet assembly, per emitted byte
	RCPass   float64 // rate control, per pass over the whole PCRD search (JasPer re-scans every pass per lambda iteration; ~100 iterations folded in)
	IOByte   float64 // stream I/O, per byte
}

// SPECosts prices kernels on one SPE.
//
//   - ShiftMCT: RCT needs ~6 int ops/sample vectorized: 6/4 = 1.5.
//   - DWT53: 2 lifting steps × (2 adds + shift + add) ≈ 8 ops/sample,
//     8/4 = 2 plus odd/even shuffles ≈ 2.6.
//   - DWT97: 4 lifting steps × 1 fma + scaling ≈ 5 fma/sample, 5/4 ≈
//     1.25, but the 6-cycle fm latency forces deeper pipelining and
//     shuffle overhead ≈ 3.2.
//   - DWT97Fix: every multiply becomes a 5-instruction emulation
//     (FixedMul32Instrs), ≈ 2.6× the float cost — the Table 1 argument.
//   - T1Visit: scalar, branch-heavy; the SPE has no branch predictor
//     (18-cycle stall per miss) so a visit averages ~tens of cycles.
var SPECosts = KernelCosts{
	ReadConv: 1.0,
	ShiftMCT: 1.5,
	DWT53:    2.6,
	DWT97:    3.2,
	DWT97Fix: 8.3,
	DWTConv:  6.0,
	Quant:    1.4,
	T1Scan:   3.0,
	T1Visit:  26.0,
	T2Byte:   12.0,
	RCPass:   0, // rate control never runs on SPEs in our scheme
	IOByte:   1.0,
}

// PPECosts prices kernels on one PPE thread. Scalar code, decent branch
// prediction (Tier-1 clearly faster than the branch-stalled SPE), but no
// SIMD and painful strided access for the vertical DWT.
var PPECosts = KernelCosts{
	ReadConv: 3.0,
	ShiftMCT: 6.0,
	DWT53:    20.0,
	DWT97:    30.0,
	DWT97Fix: 38.0,
	DWTConv:  48.0,
	Quant:    7.0,
	T1Scan:   1.8,
	T1Visit:  15.0,
	T2Byte:   6.0,
	RCPass:   5000.0,
	IOByte:   0.8,
}

// Cycles converts a per-element cost and element count to sim time.
func Cycles(perElem float64, elems int) sim.Time {
	return sim.Time(perElem * float64(elems))
}

// T1Cycles prices a Tier-1 block encode from its scan and decision
// counters under a processing element's costs.
func T1Cycles(c KernelCosts, scanned, coded int) sim.Time {
	return sim.Time(float64(c.T1Scan*float64(scanned)) + float64(c.T1Visit*float64(coded)))
}
