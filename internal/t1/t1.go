// Package t1 implements EBCOT Tier-1 coding (ITU-T T.800 Annex D): the
// embedded bit-plane coder that turns a code block of quantized wavelet
// coefficients into an arithmetic-coded bitstream, three coding passes
// per bit plane — significance propagation, magnitude refinement, and
// cleanup — over a stripe-oriented scan with 19 adaptive MQ contexts.
//
// The MQ encoder and decoder share one state representation (luts.go):
// a 32-bit word per stripe column of four samples, holding the
// samples' significance together with that of the neighbors around
// them, and the samples' sign, refined and visited bits. A sample that
// becomes significant updates the three words of its stripe, and the
// three of the stripe above or below when it sits on the stripe's top
// or bottom row. The zero-coding, sign and refinement contexts are
// table lookups on shifted windows of the word, and whether a column
// has anything to code in a pass is one test on one load. The contexts
// are those of the Table D.1–D.4 functions, and the decisions those of
// the standard's pass definitions, checked against a byte-flag oracle
// that recomputes everything from neighbor loads (oracle_test.go).
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

// PerPass reports whether every coding pass is its own codeword
// segment, with its own length in the packet header: true for
// ModeTermAll and both HT modes, whose passes are separately
// terminated byte streams.
func (m Mode) PerPass() bool { return m.Base() == ModeTermAll || m.IsHT() }

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

// coder holds the shared geometry and state of an MQ encode or decode.
type coder struct {
	w, h   int
	orient dwt.Orient
	zcTab  int      // lutZC table for orient
	state  []uint32 // column words (luts.go), (w+2) × (stripes+2) with border
	sw     int      // state row stride = w+2
	mag    []uint32
	cx     [nctx]mq.Context
}

// newCoder draws scratch from the coder pool (pool.go); callers release
// it when the block is done. Column words and magnitudes are zeroed,
// contexts reset to their standard initial states.
//
// The column words carry a one-word border on every side: a column
// left or right of the block, and a stripe row above and below it.
// Significance mirrored out of the block lands there and is never
// read, so setSig needs no bounds tests.
func newCoder(w, h int, orient dwt.Orient) *coder {
	c, _ := coderPool.Get().(*coder)
	if c == nil {
		c = &coder{}
	}
	c.w, c.h, c.orient = w, h, orient
	c.zcTab = zcTabFor(orient)
	c.sw = w + 2
	c.state = zeroed(c.state, (w+2)*((h+3)/4+2))
	c.mag = zeroed(c.mag, w*h)
	c.cx = newContexts()
	return c
}

// col maps a sample to its column word's index in state and its row
// within the stripe.
func (c *coder) col(x, y int) (j int, k uint) { return (y/4+1)*c.sw + x + 1, uint(y % 4) }
