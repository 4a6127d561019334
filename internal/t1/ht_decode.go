package t1

import (
	"fmt"

	"j2kcell/internal/dwt"
)

// decodeHT reconstructs a block coded by encodeHT. Segment boundaries
// come from segLens (HT blocks always travel with per-pass segment
// lengths, like TERMALL MQ blocks); the cleanup segment carries its
// own MEL/VLC stream lengths and cleanup plane in the trailer, so the
// decode is self-describing for any truncated pass prefix (cleanup
// only, cleanup+SigProp, or all three). Structural damage — stream
// lengths exceeding the segment, significance bits addressing samples
// outside the block, implausible magnitude exponents, MEL/VLC
// disagreement — returns an error; bit-level damage degrades into
// wrong coefficients, never a panic.
func decodeHT(coef []int32, w, h, stride int, orient dwt.Orient, numBPS, numPasses int, data []byte, segLens []int) error {
	for y := 0; y < h; y++ {
		clear(coef[y*stride : y*stride+w])
	}
	if numBPS == 0 || numPasses == 0 {
		return nil
	}
	if numPasses > 3 {
		return fmt.Errorf("t1: HT block declares %d passes, max 3", numPasses)
	}
	if len(segLens) < numPasses {
		return fmt.Errorf("t1: %d passes but only %d segment lengths", numPasses, len(segLens))
	}
	var segs [3][]byte
	off := 0
	for i := 0; i < numPasses; i++ {
		n := segLens[i]
		if n < 0 {
			n = 0
		}
		if off+n > len(data) {
			n = len(data) - off
		}
		segs[i] = data[off : off+n]
		off += n
	}

	cup := segs[0]
	if len(cup) < htTrailerLen {
		return fmt.Errorf("t1: HT cleanup segment too short (%d bytes)", len(cup))
	}
	tr := cup[len(cup)-htTrailerLen:]
	lenMEL := int(tr[0]) | int(tr[1])<<8 | int(tr[2])<<16
	lenVLC := int(tr[3]) | int(tr[4])<<8 | int(tr[5])<<16
	pCup := int(tr[6])
	if pCup > 1 {
		return fmt.Errorf("t1: HT cleanup plane %d out of range", pCup)
	}
	body := len(cup) - htTrailerLen
	if lenMEL+lenVLC > body {
		return fmt.Errorf("t1: HT stream lengths %d+%d exceed cleanup body %d", lenMEL, lenVLC, body)
	}
	var mel melDecoder
	var ms, vlc htReader
	ms.init(cup[:body-lenMEL-lenVLC])
	mel.init(cup[body-lenMEL-lenVLC : body-lenVLC])
	vlc.init(cup[body-lenVLC : body])

	c := newCoder(w, h, orient)
	defer c.release()
	lpp := getInt8(w * h)
	defer putInt8(lpp)
	lp := *lpp
	rhoRow := getInt8((w + 1) / 2) // significance patterns of the quad row above
	defer putInt8(rhoRow)
	prevRho := *rhoRow

	// Cleanup: mirror the encoder's quad scan. The encoder's batched
	// all-quiet fast path emits byte-identical MEL events to the
	// per-quad path, so one unified loop decodes both.
	nqx := (w + 1) / 2
	nqy := (h + 1) / 2
	up := uint(pCup)
	maxU := numBPS - pCup
	if maxU > 31-pCup {
		maxU = 31 - pCup
	}
	mag, flags, fw := c.mag, c.flags, c.fw
	for qy := 0; qy < nqy; qy++ {
		y0 := qy * 2
		tall := y0+1 < h
		left := int8(0)
		for qx := 0; qx < nqx; qx++ {
			x0 := qx * 2
			var rho uint32
			if left|prevRho[qx] == 0 { // AZC quad
				if mel.decode() == 0 {
					prevRho[qx] = 0
					left = 0
					continue
				}
				rho = vlc.get(4)
				if rho == 0 {
					return fmt.Errorf("t1: HT MEL/VLC disagree on quad significance")
				}
			} else {
				rho = vlc.get(4)
			}
			if rho != 0 {
				if (!tall && rho&0xA != 0) || (x0+1 >= w && rho&0xC != 0) {
					return fmt.Errorf("t1: HT significance pattern addresses samples outside the block")
				}
				u := getUExp(&vlc) + 1 // U_q
				if u > maxU {
					return fmt.Errorf("t1: HT magnitude exponent %d exceeds %d coded planes", u, maxU)
				}
				ub := uint(u)
				mi := y0*w + x0
				fi := (y0+1)*fw + x0 + 1
				for i := 0; i < 4; i++ {
					if rho&(1<<i) == 0 {
						continue
					}
					fj, mj := fi, mi
					if i&1 != 0 {
						fj += fw
						mj += w
					}
					if i&2 != 0 {
						fj++
						mj++
					}
					neg := ms.get(1) == 1
					v := ms.get(ub) + 1
					mag[mj] = v << up
					lp[mj] = int8(pCup)
					if neg {
						flags[fj] |= fwNeg
					}
					c.setSig(fj, neg)
				}
			}
			prevRho[qx] = int8(rho)
			left = int8(rho)
		}
	}
	// Trailer consistency: an intact cleanup segment's declared stream
	// lengths cover every bit the quad scan just consumed, so any
	// overrun means the trailer lies about the segment layout.
	if ms.overrun || mel.r.overrun || vlc.overrun {
		return fmt.Errorf("t1: HT cleanup streams shorter than the coding process requires")
	}

	if numPasses >= 2 {
		if pCup != 1 {
			return fmt.Errorf("t1: HT refinement passes after a plane-0 cleanup")
		}
		// SigProp: raw significance bit for every still-insignificant
		// sample with a significant neighbor, membership evolving in the
		// same raster order as the encoder.
		var r htReader
		r.init(segs[1])
		for y := 0; y < h; y++ {
			fi := (y+1)*fw + 1
			mi := y * w
			for x := 0; x < w; x++ {
				fv := flags[fi]
				if fv&fwSig == 0 && fv&fwSigNbr != 0 {
					if r.get(1) == 1 {
						neg := r.get(1) == 1
						if neg {
							flags[fi] |= fwNeg
						}
						c.setSig(fi, neg)
						mag[mi] = 1
						lp[mi] = 0
					}
				}
				fi++
				mi++
			}
		}
		if r.overrun {
			return fmt.Errorf("t1: HT SigProp segment shorter than its membership requires")
		}
	}
	if numPasses >= 3 {
		// MagRef: raw LSB for every cleanup-significant sample (SigProp
		// arrivals have magnitude 1, excluded by mag>>1 on both sides).
		var r htReader
		r.init(segs[2])
		for i := 0; i < w*h; i++ {
			if mag[i]>>1 != 0 {
				mag[i] |= r.get(1)
				lp[i] = 0
			}
		}
		if r.overrun {
			return fmt.Errorf("t1: HT MagRef segment shorter than its membership requires")
		}
	}

	// Midpoint reconstruction at each sample's reached precision — the
	// same rule as the MQ decoder.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			m := mag[i]
			if m == 0 {
				continue
			}
			if l := lp[i]; l > 0 {
				m += 1 << uint(l-1)
			}
			v := int32(m)
			if flags[c.fidx(x, y)]&fwNeg != 0 {
				v = -v
			}
			coef[y*stride+x] = v
		}
	}
	return nil
}
