package dwt

import "j2kcell/internal/simd"

// JasPer-style fixed-point 9/7 lifting step. JasPer represents the
// lossy pipeline's real numbers as 32-bit fixed point (Q13) on the
// assumption that integer multiplies beat floats; Section 4 of the
// paper shows the assumption fails on the SPE, whose 32-bit integer
// multiply must be emulated from 16-bit halves (Table 1) while float
// multiplies are single fast instructions. The Q13 lifting step below
// is the fixed-point counterpart of Lift97 that Table 1's host rows
// time against it.

// FixShift is the number of fractional bits (JasPer's jpc fix format).
const FixShift = 13

// ToFixed converts an integer sample to Q13.
func ToFixed(v int32) int32 { return v << FixShift }

// Lift97Fixed applies d[i] += c*(e0[i]+e1[i]) in Q13 through the simd
// kernel layer (the vector forms decompose the 64-bit product exactly,
// see simd.FixAddMulRow).
func Lift97Fixed(d, e0, e1 []int32, c int32) {
	simd.FixAddMulRow(d, e0, e1, c)
}
