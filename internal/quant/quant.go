// Package quant implements the scalar deadzone quantizer of the
// JPEG2000 irreversible path. Step sizes are derived per subband from
// the synthesis basis norms: Δ_b = Δ0 / g_b, so that one quantizer LSB
// contributes the same image-domain error in every band and the
// Tier-1 distortion weights stay uniform. (The reversible 5/3 path
// uses no quantization; its "ranging" is the identity.)
package quant

import (
	"j2kcell/internal/dwt"
	"j2kcell/internal/simd"
)

// DefaultBaseDelta is Δ0: half an 8-bit gray level of image-domain
// error per quantizer LSB.
const DefaultBaseDelta = 0.5

// StepFor returns the quantizer step for a subband.
func StepFor(baseDelta float64, levels int, o dwt.Orient, level int) float64 {
	return baseDelta / dwt.BandGain(dwt.W97, levels, o, level)
}

// QuantizeRow converts one row of 9/7 coefficients to sign-magnitude
// integers: q = sign(v) * floor(|v| / Δ).
// The branchy sign split of the scalar form is equivalent to one
// truncation toward zero, which is what the vector kernel performs.
func QuantizeRow(dst []int32, src []float32, delta float32) {
	simd.QuantizeRow(dst, src, 1/delta)
}

// QuantizeBlock quantizes a w×h region with independent source and
// destination strides — the fused quantization step of a Tier-1 block
// job in the stage pipeline, where each block quantizes its own
// coefficients into scratch just before entropy coding. Elementwise
// identical to quantizing the whole plane row by row.
func QuantizeBlock(dst []int32, dstStride int, src []float32, srcStride, w, h int, delta float32) {
	for y := 0; y < h; y++ {
		QuantizeRow(dst[y*dstStride:y*dstStride+w], src[y*srcStride:y*srcStride+w], delta)
	}
}

// DequantizeRow reconstructs coefficients with the standard r=0.5
// midpoint: v = sign(q) * (|q| + 0.5) * Δ for q != 0. Tier-1 decoding
// of truncated blocks already folds in the midpoint of the missing
// planes, so here the 0.5 accounts only for the sub-LSB remainder.
// The branchy sign split of the scalar form equals one unconditional
// add of a sign-carrying 0.5 bias, which is what the vector kernel
// performs.
func DequantizeRow(dst []float32, src []int32, delta float32) {
	simd.DequantRow(dst, src, delta)
}

// DequantizeBlock reconstructs a w×h block of quantizer indices, packed
// at stride w in src, into dst at stride dstStride — the mirror of
// QuantizeBlock, and the fused dequantization step of a Tier-1 decode
// job, which decodes a block into scratch and writes its final
// coefficients straight into the float plane. Elementwise identical to
// DequantizeRow over the whole plane.
func DequantizeBlock(dst []float32, dstStride int, src []int32, w, h int, delta float32) {
	for y := 0; y < h; y++ {
		DequantizeRow(dst[y*dstStride:y*dstStride+w], src[y*w:y*w+w], delta)
	}
}
