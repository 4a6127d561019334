// Package t1 implements EBCOT Tier-1 coding (ITU-T T.800 Annex D): the
// embedded bit-plane coder that turns a code block of quantized wavelet
// coefficients into an arithmetic-coded bitstream, three coding passes
// per bit plane — significance propagation, magnitude refinement, and
// cleanup — over a stripe-oriented scan with 19 adaptive MQ contexts.
//
// The hot path is built around incrementally maintained per-coefficient
// flag words (luts.go): each coefficient's word caches the significance
// and sign of its 8 neighbors, updated once when a neighbor becomes
// significant, so the zero-coding and sign-coding contexts are single
// table lookups and entire all-quiet stripe columns are skipped from
// one OR over the column's words. The emitted bitstream is identical to
// the original eight-load context computation — the flag words and LUTs
// are a pure refactor of the Table D.1–D.4 functions, verified by the
// differential tests against the pre-LUT reference (oracle_test.go).
//
// The encoder records, for every coding pass, its cumulative byte cost
// and the weighted distortion reduction it buys; rate control (package
// rate) selects truncation points from exactly these numbers, and the
// work-queue cost model prices Tier-1 on the Cell from the scan/decision
// counters. A full decoder is provided for round-trip verification.
package t1

import (
	"fmt"

	"j2kcell/internal/dwt"
	"j2kcell/internal/mq"
)

// Mode selects the codeword segmentation style.
type Mode int

// Coding modes.
const (
	// ModeSingle codes all passes into one MQ segment terminated once.
	// Minimal overhead; used for lossless encoding, where nothing is
	// truncated.
	ModeSingle Mode = iota
	// ModeTermAll terminates the MQ coder after every pass (the
	// standard's TERMALL style), making every pass boundary an exact,
	// independently decodable truncation point for rate control.
	ModeTermAll
	// ModeHT selects the HTJ2K (ITU-T T.814 / Part 15) FBCOT block
	// coder instead of the MQ coder: one cleanup pass at plane 0
	// carrying the MagSgn, MEL and VLC byte streams — an exact
	// representation of the quantized coefficients (lossless given a
	// reversible upstream chain), with no truncation points.
	ModeHT
	// ModeHTRefine is the rate-control variant of ModeHT: the cleanup
	// pass runs at plane 1 and HT SigProp + MagRef raw-bit refinement
	// passes finish plane 0, so PCRD gets three truncation points per
	// block. Every HT pass is its own byte-aligned segment.
	ModeHTRefine
)

// segSymFlag is OR-ed into a Mode to enable segmentation symbols: the
// encoder codes the four-symbol 1010 sentinel in the UNIFORM context at
// the end of every cleanup pass (T.800 D.5, the SEGSYM coding style),
// and the decoder verifies it — turning silent MQ desynchronization
// inside a damaged segment into a detected error. Orthogonal to the
// base termination style, so it composes with ModeSingle and
// ModeTermAll without new enum values.
const segSymFlag Mode = 1 << 8

// WithSegSym returns the mode with segmentation symbols enabled.
func (m Mode) WithSegSym() Mode { return m | segSymFlag }

// SegSym reports whether segmentation symbols are coded.
func (m Mode) SegSym() bool { return m&segSymFlag != 0 }

// Base strips option flags, leaving the termination-style enum value.
func (m Mode) Base() Mode { return m &^ segSymFlag }

// IsHT reports whether the mode selects the HT (Part 15) block coder
// rather than the MQ coder.
func (m Mode) IsHT() bool { b := m.Base(); return b == ModeHT || b == ModeHTRefine }

// PassType identifies one of the three coding passes.
type PassType uint8

// Pass types in coding order within a bit plane.
const (
	PassSig PassType = iota // significance propagation
	PassRef                 // magnitude refinement
	PassCln                 // cleanup
)

func (p PassType) String() string {
	switch p {
	case PassSig:
		return "SPP"
	case PassRef:
		return "MRP"
	case PassCln:
		return "CLP"
	}
	return fmt.Sprintf("PassType(%d)", int(p))
}

// Pass describes one coding pass of an encoded block. Every coded
// block keeps one per pass (3·NumBPS−2 on the MQ path), so the fields
// are as narrow as a 64×64 block allows: 32 bytes a pass.
type Pass struct {
	CumLen    int      // cumulative segment bytes through this pass
	DistDelta float64  // weighted distortion reduction of this pass
	SegLen    int32    // this pass's own segment length (ModeTermAll)
	Scanned   int32    // coefficients examined
	Coded     int32    // MQ decisions coded
	Plane     int8     // bit plane index (0 = LSB)
	Type      PassType // coding pass
}

// Block is the Tier-1 encoding of one code block.
type Block struct {
	W, H   int
	Orient dwt.Orient
	NumBPS int // bit planes actually coded (0 if all-zero block)
	Mode   Mode
	Passes []Pass
	Data   []byte // concatenated codeword segments

	// Renorms is the MQ renormalization-chunk count of the block's
	// encode (0 for HT blocks, which use no MQ coder).
	Renorms int64
}

// TotalScanned sums the scan counter over all passes.
func (b *Block) TotalScanned() int {
	n := 0
	for _, p := range b.Passes {
		n += int(p.Scanned)
	}
	return n
}

// TotalCoded sums the decision counter over all passes.
func (b *Block) TotalCoded() int {
	n := 0
	for _, p := range b.Passes {
		n += int(p.Coded)
	}
	return n
}

// Context indices (T.800 Table D.1–D.4 numbering: 9 zero-coding, 5
// sign-coding, 3 magnitude-refinement, run-length, uniform).
const (
	ctxZC  = 0  // 0..8
	ctxSC  = 9  // 9..13
	ctxMR  = 14 // 14..16
	ctxRL  = 17
	ctxUNI = 18
	nctx   = 19
)

// newContexts returns the standard initial context states: everything
// at table state 0 except zero-coding context 0 (state 4), run-length
// (state 3) and uniform (state 46).
func newContexts() [nctx]mq.Context {
	var cx [nctx]mq.Context
	for i := range cx {
		cx[i] = mq.NewContext(0)
	}
	cx[ctxZC] = mq.NewContext(4)
	cx[ctxRL] = mq.NewContext(3)
	cx[ctxUNI] = mq.NewContext(46)
	return cx
}

// coder holds the shared geometry and state of an encode or decode.
type coder struct {
	w, h   int
	orient dwt.Orient
	zcTab  int      // lutZC table for orient
	flags  []uint32 // (w+2) x (h+2) flag words, row-major with border
	fw     int      // flags row stride = w+2
	mag    []uint32
	cx     [nctx]mq.Context
}

// newCoder draws scratch from the coder pool (pool.go); callers release
// it when the block is done. Flags and magnitudes are zeroed, contexts
// reset to their standard initial states.
func newCoder(w, h int, orient dwt.Orient) *coder {
	c, _ := coderPool.Get().(*coder)
	if c == nil {
		c = &coder{}
	}
	c.w, c.h, c.orient = w, h, orient
	c.zcTab = zcTabFor(orient)
	c.fw = w + 2
	if n := (w + 2) * (h + 2); cap(c.flags) < n {
		c.flags = make([]uint32, n)
	} else {
		c.flags = c.flags[:n]
		clear(c.flags)
	}
	if n := w * h; cap(c.mag) < n {
		c.mag = make([]uint32, n)
	} else {
		c.mag = c.mag[:n]
		clear(c.mag)
	}
	c.cx = newContexts()
	return c
}

// fidx maps block coordinates to the bordered flags array.
func (c *coder) fidx(x, y int) int { return (y+1)*c.fw + (x + 1) }

// zcContext computes the zero-coding context from the cached neighbor
// significance bits of the flag word (Table D.1).
func (c *coder) zcContext(fi int) int {
	return int(lutZC[c.zcTab][c.flags[fi]>>4&0xFF])
}

// scContext computes the sign-coding context and XOR bit (Table D.3)
// from the cached neighbor significance and sign bits.
func (c *coder) scContext(fi int) (ctx int, xor uint8) {
	v := lutSC[scIndex(c.flags[fi])]
	return ctxSC + int(v&7), v >> 3
}

// mrContext computes the magnitude-refinement context (Table D.4).
func (c *coder) mrContext(fi int) int { return mrCtx(c.flags[fi]) }
