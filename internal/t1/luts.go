package t1

import "j2kcell/internal/dwt"

// Stripe-column state words (OpenJPEG's opj_flag_t, since 2.2).
//
// Each stripe column of four samples has one uint32 that holds the
// significance (σ) of the column and of the samples around it, and the
// column's sign (χ), refined (μ) and visited (π) bits. σ is a 3×6
// window: the left column (W), the column itself (C) and the right
// column (E), over the row above the stripe, its four rows and the row
// below. Encoder and decoder share the words, so their context
// sequences agree by construction.
//
// Word layout (row r = −1..4, stripe row k = 0..3):
//
//	bits 3(r+1) .. 3(r+1)+2   σ of row r: W, C, E
//	bit  18                   χ of row −1 (the last row of the stripe above)
//	bits 19+3k, 20+3k, 21+3k  χ, μ, π of row k
//	bit  31                   χ of row 4 (the first row of the stripe below)
//
// Shifting a word right by 3k puts row k's 3×3 neighborhood in bits
// 0..8 (NW, N, NE, W, self, E, SW, S, SE) and its own χ, μ and π in
// bits 19, 20 and 21, so one window serves the zero-coding and
// refinement contexts and most of the sign context. The W and E signs
// are read from the neighboring words.
//
// π marks the samples the significance pass visited in the current
// plane; the cleanup pass, which ends every plane and walks every
// column, clears it.
const (
	cwSelf uint32 = 1 << 4  // σ of the window's own sample
	cwNbr  uint32 = 0x1EF   // σ of its 8 neighbors
	cwChi  uint32 = 1 << 19 // χ: the window's own sample is negative
	cwMu   uint32 = 1 << 20 // μ: refined at least once
	cwPi   uint32 = 1 << 21 // π: visited in this plane's significance pass

	cwSigma   uint32 = 0x3FFFF                                    // σ of the whole 3×6 window
	cwSelfAll        = cwSelf | cwSelf<<3 | cwSelf<<6 | cwSelf<<9 // σ of the four rows
	cwMuAll          = cwMu | cwMu<<3 | cwMu<<6 | cwMu<<9         // μ of the four rows
	cwPiAll          = cwPi | cwPi<<3 | cwPi<<6 | cwPi<<9         // π of the four rows
)

// stripeRows is the σ mask of a stripe's first sh rows (cwSelfAll for
// a full stripe).
func stripeRows(sh int) uint32 { return cwSelfAll & (1<<(3*uint(sh)+4) - 1) }

// Row sets. A set of a column's rows is a word with row k's bit at its
// σ position, 3k+4, so that bits.TrailingZeros32(set)−4 is 3k, the
// shift of row k's window.

// sigMembers is the set of rows among rows (a stripeRows mask) that
// the significance pass codes, given column word fv: insignificant
// rows with a significant neighbor — a non-zero zero-coding context.
// g has, at bit 3r, whether any of window row r−1's three samples is
// significant; shifted to σ positions it gives the rows above and
// below, and fv shifted by one gives the left and right neighbors.
func sigMembers(fv, rows uint32) uint32 {
	g := fv | fv>>1 | fv>>2
	return (g<<4 | g>>2 | fv<<1 | fv>>1) &^ fv & rows
}

// setSig marks row k of column word j significant with sign neg (0 or
// 1). It mirrors the significance into the left and right words of the
// stripe and, for rows 0 and 3, into the three words of the stripe
// above or below (with the sign into the middle one, for its N or S
// sign context). It returns the bits to OR into word j itself, which
// the passes hold in a register while they walk its column. The border
// words absorb writes from the block's edges.
func (c *coder) setSig(j int, k uint, neg uint32) uint32 {
	st := c.state
	st[j-1] |= cwSelf << 1 << (3 * k) // E of the left column
	st[j+1] |= cwSelf >> 1 << (3 * k) // W of the right column
	switch k {
	case 0: // row 4 of the stripe above
		sw := c.sw
		st[j-sw-1] |= 1 << 17
		st[j-sw] |= 1<<16 | neg<<31
		st[j-sw+1] |= 1 << 15
	case 3: // row −1 of the stripe below
		sw := c.sw
		st[j+sw-1] |= 1 << 2
		st[j+sw] |= 1<<1 | neg<<18
		st[j+sw+1] |= 1 << 0
	}
	return (cwSelf | neg*cwChi) << (3 * k)
}

// Context lookup tables, built once at init from the reference context
// functions below (the Table D.1/D.3 logic, kept as the oracle for the
// differential tests).
//
//	lutZC[tab][win&0x1FF]      zero-coding context 0..8 of window win
//	lutSC[scIndex(f, l, r, k)] sign context offset (bits 0..2) | XOR<<3
var (
	lutZC [3][512]uint8
	lutSC [256]uint8
)

// zcTabFor selects the orientation's zero-coding table: LL/LH share one
// (horizontal neighbors dominate), HL swaps the H/V roles, HH is driven
// by the diagonals.
func zcTabFor(o dwt.Orient) int {
	switch o {
	case dwt.HL:
		return 1
	case dwt.HH:
		return 2
	default:
		return 0
	}
}

// scIndex gathers the sign-coding table index of row k of column word
// f, whose left and right neighbors are l and r. Index bits: 0 χW,
// 1 σN, 2 χE, 3 σW, 4 χN, 5 σE, 6 χS, 7 σS — the σ bits sit where the
// window has them.
func scIndex(f, l, r uint32, k uint) uint32 {
	win := f >> (3 * k)
	chiN := win >> 16 // χ of row k−1 for k ≥ 1
	if k == 0 {
		chiN = f >> 18
	}
	return win&0xAA | l>>(3*k+19)&1 | r>>(3*k+19)&1<<2 | chiN&1<<4 | win>>22&1<<6
}

// mrCtx is the magnitude-refinement context (Table D.4) of a window:
// two bit tests instead of eight neighbor loads.
func mrCtx(win uint32) int {
	if win&cwMu != 0 {
		return ctxMR + 2
	}
	if win&cwNbr != 0 {
		return ctxMR + 1
	}
	return ctxMR
}

// refZC is the reference zero-coding context (Table D.1) from explicit
// horizontal/vertical/diagonal significance counts — the original
// branchy implementation the LUTs are generated from and tested
// against. h and v are the counts in the orientation's preferred roles
// (already swapped for HL).
func refZC(orient dwt.Orient, h, v, d int) int {
	if orient == dwt.HH {
		switch {
		case d >= 3:
			return 8
		case d == 2:
			if h+v >= 1 {
				return 7
			}
			return 6
		case d == 1:
			switch {
			case h+v >= 2:
				return 5
			case h+v == 1:
				return 4
			default:
				return 3
			}
		default:
			switch {
			case h+v >= 2:
				return 2
			case h+v == 1:
				return 1
			default:
				return 0
			}
		}
	}
	switch {
	case h == 2:
		return 8
	case h == 1:
		switch {
		case v >= 1:
			return 7
		case d >= 1:
			return 6
		default:
			return 5
		}
	default:
		switch {
		case v == 2:
			return 4
		case v == 1:
			return 3
		case d >= 2:
			return 2
		case d == 1:
			return 1
		default:
			return 0
		}
	}
}

// refSC is the reference sign-coding context and XOR bit (Table D.3)
// from the clamped horizontal and vertical sign contributions.
func refSC(h, v int) (ctx int, xor uint8) {
	switch {
	case h == 1:
		switch v {
		case 1:
			return ctxSC + 4, 0
		case 0:
			return ctxSC + 3, 0
		default:
			return ctxSC + 2, 0
		}
	case h == 0:
		switch v {
		case 1:
			return ctxSC + 1, 0
		case 0:
			return ctxSC, 0
		default:
			return ctxSC + 1, 1
		}
	default:
		switch v {
		case 1:
			return ctxSC + 2, 1
		case 0:
			return ctxSC + 3, 1
		default:
			return ctxSC + 4, 1
		}
	}
}

func clampPM1(x int) int {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}

// bit reports whether bit b of idx is set, as a 0/1 count.
func bit(idx, b int) int { return (idx >> uint(b)) & 1 }

func init() {
	// Zero-coding: enumerate the 512 windows (NW,N,NE,W,self,E,SW,S,SE
	// in bits 0..8). A significant sample is coded by no zero-coding
	// decision, so its windows keep context 0: a significance pass
	// member is exactly a window with a non-zero entry.
	for idx := 0; idx < 512; idx++ {
		if bit(idx, 4) != 0 {
			continue
		}
		h := bit(idx, 3) + bit(idx, 5)
		v := bit(idx, 1) + bit(idx, 7)
		d := bit(idx, 0) + bit(idx, 2) + bit(idx, 6) + bit(idx, 8)
		lutZC[0][idx] = uint8(refZC(dwt.LL, h, v, d))
		lutZC[1][idx] = uint8(refZC(dwt.LL, v, h, d)) // HL: swapped roles
		lutZC[2][idx] = uint8(refZC(dwt.HH, h, v, d))
	}
	// Sign-coding, in scIndex's bit order. A sign bit without its
	// significance bit contributes 0.
	for idx := 0; idx < 256; idx++ {
		contrib := func(sigBit, negBit int) int {
			if bit(idx, sigBit) == 0 {
				return 0
			}
			if bit(idx, negBit) != 0 {
				return -1
			}
			return 1
		}
		h := clampPM1(contrib(3, 0) + contrib(5, 2)) // W + E
		v := clampPM1(contrib(1, 4) + contrib(7, 6)) // N + S
		ctx, xor := refSC(h, v)
		lutSC[idx] = uint8(ctx-ctxSC) | xor<<3
	}
}
