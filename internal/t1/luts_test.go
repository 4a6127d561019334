package t1

import (
	"math/bits"
	"testing"

	"j2kcell/internal/dwt"
	"j2kcell/internal/workload"
)

// TestLUTZeroCodingExhaustive checks every zero-coding LUT entry against
// the oracle: for each of the 512 column-word windows (NW,N,NE,W,self,
// E,SW,S,SE in bits 0..8), build the 3×3 neighborhood explicitly in the
// byte-flag oracle and compare its recomputed context with the table
// entry for every orientation. A window whose own sample is significant
// must give 0, the significance pass's "not a member".
func TestLUTZeroCodingExhaustive(t *testing.T) {
	for _, orient := range []dwt.Orient{dwt.LL, dwt.HL, dwt.LH, dwt.HH} {
		for idx := 0; idx < 512; idx++ {
			o := newOracle(3, 3, orient)
			for b := 0; b < 9; b++ {
				if idx>>uint(b)&1 != 0 {
					o.flags[o.fidx(b%3, b/3)] |= oSig
				}
			}
			want := o.zcContext(o.fidx(1, 1))
			if idx&int(cwSelf) != 0 {
				want = 0
			}
			if got := int(lutZC[zcTabFor(orient)][idx]); got != want {
				t.Fatalf("%v window %09b: LUT context %d, oracle %d", orient, idx, got, want)
			}
		}
	}
}

// TestLUTSignCodingExhaustive checks every sign-coding LUT entry: all
// 256 (significance, sign) patterns of the four H/V neighbors, in
// scIndex's bit order, against the oracle's recomputed context and XOR
// bit.
func TestLUTSignCodingExhaustive(t *testing.T) {
	// scIndex bit pairs (σ, χ) for N, S, W, E and the neighbor's place.
	nbr := [4]struct{ sig, chi, x, y int }{
		{1, 4, 1, 0}, {7, 6, 1, 2}, {3, 0, 0, 1}, {5, 2, 2, 1},
	}
	for idx := 0; idx < 256; idx++ {
		o := newOracle(3, 3, dwt.LL)
		for _, n := range nbr {
			fi := o.fidx(n.x, n.y)
			if idx>>uint(n.sig)&1 != 0 {
				o.flags[fi] |= oSig
			}
			if idx>>uint(n.chi)&1 != 0 {
				o.flags[fi] |= oNeg
			}
		}
		wantCtx, wantXor := o.scContext(o.fidx(1, 1))
		v := lutSC[idx]
		if got, gotXor := ctxSC+int(v&7), v>>3; got != wantCtx || gotXor != wantXor {
			t.Fatalf("pattern %08b: LUT (%d,%d), oracle (%d,%d)", idx, got, gotXor, wantCtx, wantXor)
		}
	}
}

// contextsAt returns the zero-coding, sign-coding (with its XOR bit)
// and refinement contexts the passes compute for sample (x, y), from
// the same windows and neighbor words they use.
func (c *coder) contextsAt(x, y int) (zc, sc int, xor uint8, mr int) {
	j, k := c.col(x, y)
	st := c.state
	win := st[j] >> (3 * k)
	v := lutSC[scIndex(st[j], st[j-1], st[j+1], k)]
	return int(lutZC[c.zcTab][win&0x1FF]), ctxSC + int(v&7), v >> 3, mrCtx(win)
}

// TestFlagWordsMatchOracle drives the column-word coder and the
// recompute-everything oracle through identical randomized
// significance/refinement histories and asserts, at every sample after
// every step, that every context the passes could ask for — zero
// coding, sign coding, magnitude refinement — agrees, and that the
// word's own σ, χ and μ bits equal the oracle's flags. Each setSig must
// touch at most the 3 words of its stripe, or 6 on a stripe's top or
// bottom row.
func TestFlagWordsMatchOracle(t *testing.T) {
	rng := workload.NewRNG(77)
	for trial := 0; trial < 60; trial++ {
		w := rng.Intn(20) + 1
		h := rng.Intn(20) + 1
		if trial%10 == 0 {
			w, h = rng.Intn(64)+1, rng.Intn(64)+1
		}
		orient := dwt.Orient(rng.Intn(4))
		c := newCoder(w, h, orient)
		o := newOracle(w, h, orient)

		check := func(step int) {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					oi := o.fidx(x, y)
					zc, sc, xor, mr := c.contextsAt(x, y)
					want := o.zcContext(oi)
					if o.flags[oi]&oSig != 0 {
						want = 0 // significant: no zero-coding decision
					}
					if zc != want {
						t.Fatalf("trial %d step %d (%d,%d) %v: zc LUT %d, oracle %d", trial, step, x, y, orient, zc, want)
					}
					if wantSC, wantXor := o.scContext(oi); sc != wantSC || xor != wantXor {
						t.Fatalf("trial %d step %d (%d,%d): sc LUT (%d,%d), oracle (%d,%d)", trial, step, x, y, sc, xor, wantSC, wantXor)
					}
					if want := o.mrContext(oi); mr != want {
						t.Fatalf("trial %d step %d (%d,%d): mr LUT %d, oracle %d", trial, step, x, y, mr, want)
					}
					j, k := c.col(x, y)
					win := c.state[j] >> (3 * k)
					of := o.flags[oi]
					sig, neg, ref := win&cwSelf != 0, win&cwChi != 0, win&cwMu != 0
					if sig != (of&oSig != 0) || neg != (of&oNeg != 0 && of&oSig != 0) || ref != (of&oRefined != 0) {
						t.Fatalf("trial %d step %d (%d,%d): word σ,χ,μ = %v,%v,%v, oracle flags %04b", trial, step, x, y, sig, neg, ref, of)
					}
				}
			}
		}

		check(-1)
		steps := rng.Intn(2*w*h) + 1
		for s := 0; s < steps; s++ {
			x, y := rng.Intn(w), rng.Intn(h)
			j, k := c.col(x, y)
			oi := o.fidx(x, y)
			switch rng.Intn(3) {
			case 0, 1: // become significant with a random sign
				if o.flags[oi]&oSig != 0 {
					continue
				}
				neg := uint32(rng.Intn(2))
				if neg == 1 {
					o.flags[oi] |= oNeg
				}
				o.flags[oi] |= oSig
				before := append([]uint32(nil), c.state...)
				c.state[j] |= c.setSig(j, k, neg)
				changed := 0
				for i := range before {
					if before[i] != c.state[i] {
						changed++
					}
				}
				limit := 3
				if k == 0 || k == 3 {
					limit = 6
				}
				if changed > limit {
					t.Fatalf("trial %d: setSig at (%d,%d) changed %d words, want at most %d", trial, x, y, changed, limit)
				}
			case 2: // refine an already significant coefficient
				if o.flags[oi]&oSig == 0 {
					continue
				}
				c.state[j] |= cwMu << (3 * k)
				o.flags[oi] |= oRefined
			}
			check(s)
		}
		c.release()
	}
}

// TestColumnWordLayout pins the column-word layout the passes rely on:
// σ of the 3×6 window, χ of the six rows and μ and π of the four
// stripe rows are disjoint and fill the 32 bits, and shifting a word by
// 3k moves row k's σ, χ, μ and π, and the χ of the rows above and below
// it, to the bits the contexts read.
func TestColumnWordLayout(t *testing.T) {
	chiAll := uint32(1<<18 | 1<<31)
	muAll := uint32(0)
	for k := uint(0); k < 4; k++ {
		chiAll |= cwChi << (3 * k)
		muAll |= cwMu << (3 * k)
	}
	fields := []uint32{cwSigma, chiAll, muAll, cwPiAll}
	sum := uint32(0)
	for i, f := range fields {
		for _, g := range fields[i+1:] {
			if f&g != 0 {
				t.Fatalf("fields %#x and %#x overlap", f, g)
			}
		}
		sum |= f
	}
	if sum != ^uint32(0) || bits.OnesCount32(cwSigma) != 18 || bits.OnesCount32(chiAll) != 6 {
		t.Fatalf("fields cover %#x", sum)
	}
	if cwSelfAll&^cwSigma != 0 || cwNbr|cwSelf != 0x1FF || cwPiAll>>17 != cwSelfAll {
		t.Fatal("σ rows, window or π alignment broken")
	}
	for k := uint(0); k < 4; k++ {
		// The χ of the rows above and below row k, alone in a word, must
		// land on scIndex's χN (bit 4) and χS (bit 6).
		above := uint32(1 << 18)
		if k > 0 {
			above = cwChi << (3 * (k - 1))
		}
		below := cwChi << (3 * (k + 1))
		if k == 3 {
			below = 1 << 31
		}
		if got := scIndex(above, 0, 0, k); got != 1<<4 {
			t.Fatalf("row %d: χ above gives index %08b", k, got)
		}
		if got := scIndex(below, 0, 0, k); got != 1<<6 {
			t.Fatalf("row %d: χ below gives index %08b", k, got)
		}
		if got := scIndex(0, cwChi<<(3*k), cwChi<<(3*k), k); got != 1|1<<2 {
			t.Fatalf("row %d: χ of the side columns gives index %08b", k, got)
		}
	}
}
