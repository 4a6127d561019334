package simd

// Pure-Go reference loops: the oracle every vector kernel must match
// bit for bit, and the fallback for tails, the noasm build and
// non-amd64 targets. These bodies are the original hot loops of the
// dwt, mct, quant, and t1 packages, moved here verbatim so the exported
// wrappers can finish rows the vector kernels leave unprocessed.
//
// Every float product that feeds an add is wrapped in float32(...). The
// Go spec makes an explicit conversion a rounding point, so no target
// may fuse it into the add (arm64 otherwise emits FMADDS), and each loop
// rounds exactly like the no-FMA vector kernels.

func scalarAddMulF32(dst, a, b, c []float32, k float32) {
	for i := range dst {
		dst[i] = a[i] + float32(k*(b[i]+c[i]))
	}
}

func scalarAddMulScaleF32(s, b, c []float32, k, scale float32) {
	for i := range s {
		s[i] = (s[i] + float32(k*(b[i]+c[i]))) * scale
	}
}

func scalarMulConstF32(dst, src []float32, k float32) {
	for i := range dst {
		dst[i] = src[i] * k
	}
}

func scalarQuantF32(dst []int32, src []float32, inv float32) {
	for i, v := range src {
		if v >= 0 {
			dst[i] = int32(v * inv)
		} else {
			dst[i] = -int32(-v * inv)
		}
	}
}

func scalarDequantF32(dst []float32, src []int32, delta float32) {
	for i, q := range src {
		switch {
		case q > 0:
			dst[i] = (float32(q) + 0.5) * delta
		case q < 0:
			dst[i] = (float32(q) - 0.5) * delta
		default:
			dst[i] = 0
		}
	}
}

// roundHalfAway rounds to the nearest integer with halves away from
// zero, identical to the decoder's original inline expression (and to
// the vector abs→+0.5→truncate→restore-sign sequence).
func roundHalfAway(v float32) int32 {
	if v >= 0 {
		return int32(v + 0.5)
	}
	return -int32(-v + 0.5)
}

func scalarRoundAddF32(dst []int32, src []float32, off float32) {
	for i, s := range src {
		dst[i] = roundHalfAway(s + off)
	}
}

func scalarICTFwd(r, g, b []int32, y, cb, cr []float32, p *ICTParams) {
	for i := range r {
		rr, gg, bb := float32(r[i])-p.Off, float32(g[i])-p.Off, float32(b[i])-p.Off
		y[i] = float32(p.YR*rr) + float32(p.YG*gg) + float32(p.YB*bb)
		cb[i] = float32(p.CbR*rr) + float32(p.CbG*gg) + float32(p.CbB*bb)
		cr[i] = float32(p.CrR*rr) + float32(p.CrG*gg) + float32(p.CrB*bb)
	}
}

func scalarICTInv(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) {
	for i := range y {
		yy, ub, vr := y[i], cb[i], cr[i]
		rf := yy + float32(p.RCr*vr) + p.Off
		gf := yy - float32(p.GCb*ub) - float32(p.GCr*vr) + p.Off
		bf := yy + float32(p.BCb*ub) + p.Off
		r[i] = roundHalfAway(rf)
		g[i] = roundHalfAway(gf)
		b[i] = roundHalfAway(bf)
	}
}

func scalarAddShr1I32(dst, a, b, c []int32) {
	for i := range dst {
		dst[i] = a[i] + ((b[i] + c[i]) >> 1)
	}
}

func scalarSubShr1I32(dst, a, b, c []int32) {
	for i := range dst {
		dst[i] = a[i] - ((b[i] + c[i]) >> 1)
	}
}

func scalarAddShr2I32(dst, a, b, c []int32) {
	for i := range dst {
		dst[i] = a[i] + ((b[i] + c[i] + 2) >> 2)
	}
}

func scalarSubShr2I32(dst, a, b, c []int32) {
	for i := range dst {
		dst[i] = a[i] - ((b[i] + c[i] + 2) >> 2)
	}
}

func scalarAddConstI32(dst []int32, k int32) {
	for i := range dst {
		dst[i] += k
	}
}

func scalarRCTFwd(r, g, b []int32, off int32) {
	for i := range r {
		rr, gg, bb := r[i]-off, g[i]-off, b[i]-off
		y := (rr + 2*gg + bb) >> 2
		cb := bb - gg
		cr := rr - gg
		r[i], g[i], b[i] = y, cb, cr
	}
}

func scalarRCTInv(y, cb, cr []int32, off int32) {
	for i := range y {
		g := y[i] - ((cb[i] + cr[i]) >> 2)
		r := cr[i] + g
		b := cb[i] + g
		y[i], cb[i], cr[i] = r+off, g+off, b+off
	}
}

func scalarClampI32(dst []int32, max int32) {
	for i, v := range dst {
		if v < 0 {
			dst[i] = 0
		} else if v > max {
			dst[i] = max
		}
	}
}

func scalarInterleave2I32(dst, even, odd []int32) {
	for i := range odd {
		dst[2*i] = even[i]
		dst[2*i+1] = odd[i]
	}
}

func scalarInterleave2F32(dst, even, odd []float32) {
	for i := range odd {
		dst[2*i] = even[i]
		dst[2*i+1] = odd[i]
	}
}

func scalarDeinterleave2I32(even, odd, src []int32) {
	for i := range odd {
		even[i] = src[2*i]
		odd[i] = src[2*i+1]
	}
}

func scalarDeinterleave2F32(even, odd, src []float32) {
	for i := range odd {
		even[i] = src[2*i]
		odd[i] = src[2*i+1]
	}
}

// fixMul13 is JasPer's Q13 multiply with rounding.
func fixMul13(a, b int32) int32 {
	return int32((int64(a)*int64(b) + (1 << (FixShift - 1))) >> FixShift)
}

func scalarFixAddMul(d, b, c []int32, k int32) {
	for i := range d {
		d[i] += fixMul13(k, b[i]+c[i])
	}
}

func scalarAbsOr(mag []uint32, coef []int32) uint32 {
	var or uint32
	for i := range mag {
		v := coef[i]
		m := uint32(v)
		if v < 0 {
			m = uint32(-v)
		}
		mag[i] = m
		or |= m
	}
	return or
}

func scalarOrU32(dst, src []uint32) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

func scalarSignOr(flags []uint32, coef []int32, bit uint32) {
	for i := range flags {
		if coef[i] < 0 {
			flags[i] |= bit
		}
	}
}

// scalarPlaneMask sets the PlaneMaskRow bits of samples i and up. A
// vector prefix of i samples has written the words below bit i and the
// low bits of word i/64, with the bits above them zero, so a partial
// first word is completed with ORs.
func scalarPlaneMask(nz, bit []uint64, mag []uint32, p uint, i int) {
	for ; i < len(mag); i = (i | 63) + 1 {
		k := i >> 6
		var n, b uint64
		if i&63 != 0 {
			n, b = nz[k], bit[k]
		}
		for j, m := range mag[i:min(len(mag), (i|63)+1)] {
			s := uint(i+j) & 63
			if m>>p != 0 {
				n |= 1 << s
			}
			b |= uint64(m>>(p-1)&1) << s
		}
		nz[k], bit[k] = n, b
	}
}
