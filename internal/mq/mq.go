// Package mq implements the JPEG2000 MQ binary arithmetic coder
// (ITU-T T.800 Annex C): an adaptive, renormalization-driven coder with
// a 47-row probability state table and byte stuffing that keeps 0xFF90+
// marker codes out of the compressed data. Both the encoder and the
// decoder are provided; EBCOT Tier-1 drives them with 19 contexts.
package mq

import "math/bits"

// state is one row of the Qe table.
type state struct {
	qe         uint32
	nmps, nlps uint8
	sw         uint8
}

// qeTable is the standard 47-state probability estimation table.
var qeTable = [47]state{
	{0x5601, 1, 1, 1},
	{0x3401, 2, 6, 0},
	{0x1801, 3, 9, 0},
	{0x0AC1, 4, 12, 0},
	{0x0521, 5, 29, 0},
	{0x0221, 38, 33, 0},
	{0x5601, 7, 6, 1},
	{0x5401, 8, 14, 0},
	{0x4801, 9, 14, 0},
	{0x3801, 10, 14, 0},
	{0x3001, 11, 17, 0},
	{0x2401, 12, 18, 0},
	{0x1C01, 13, 20, 0},
	{0x1601, 29, 21, 0},
	{0x5601, 15, 14, 1},
	{0x5401, 16, 14, 0},
	{0x5101, 17, 15, 0},
	{0x4801, 18, 16, 0},
	{0x3801, 19, 17, 0},
	{0x3401, 20, 18, 0},
	{0x3001, 21, 19, 0},
	{0x2801, 22, 19, 0},
	{0x2401, 23, 20, 0},
	{0x2201, 24, 21, 0},
	{0x1C01, 25, 22, 0},
	{0x1801, 26, 23, 0},
	{0x1601, 27, 24, 0},
	{0x1401, 28, 25, 0},
	{0x1201, 29, 26, 0},
	{0x1101, 30, 27, 0},
	{0x0AC1, 31, 28, 0},
	{0x09C1, 32, 29, 0},
	{0x08A1, 33, 30, 0},
	{0x0521, 34, 31, 0},
	{0x0441, 35, 32, 0},
	{0x02A1, 36, 33, 0},
	{0x0221, 37, 34, 0},
	{0x0141, 38, 35, 0},
	{0x0111, 39, 36, 0},
	{0x0085, 40, 37, 0},
	{0x0049, 41, 38, 0},
	{0x0025, 42, 39, 0},
	{0x0015, 43, 40, 0},
	{0x0009, 44, 41, 0},
	{0x0005, 45, 42, 0},
	{0x0001, 45, 43, 0},
	{0x5601, 46, 46, 0},
}

// mpsState is one row of the MPS-folded probability table: the 47-row
// spec table expanded to 94 rows indexed by i<<1 | mps, so that a
// state transition carries the (possibly switched) MPS value with it
// and the coding loops never touch the switch flag.
type mpsState struct {
	qe         uint32
	nmps, nlps uint8
	mps        uint8
}

// qeTable94 is derived from qeTable in init: entry 2i+m is spec state
// i with current MPS m; its NLPS successor folds in the SWITCH rule.
var qeTable94 [94]mpsState

func init() {
	for i, s := range qeTable {
		for m := uint8(0); m < 2; m++ {
			lm := m
			if s.sw == 1 {
				lm = 1 - m
			}
			qeTable94[2*i+int(m)] = mpsState{
				qe:   s.qe,
				nmps: s.nmps<<1 | m,
				nlps: s.nlps<<1 | lm,
				mps:  m,
			}
		}
	}
}

// Context is one adaptive probability context: a copy of its current
// MPS-folded table row. Caching the row turns the per-decision
// dependent chain "load index, then load table row" into a single
// 8-byte load; transitions copy a row, which only happens on
// renormalization events.
type Context struct {
	s mpsState
}

// NewContext returns a context initialized to table state i0 with MPS 0.
func NewContext(i0 uint8) Context { return Context{s: qeTable94[2*i0]} }

// Encoder is the MQ arithmetic encoder. The zero value is not usable;
// call Reset first.
type Encoder struct {
	a, c uint32
	ct   int
	b    int // index of the byte register within buf; -1 before first
	buf  []byte
	// renorms counts renormalization chunks coded by EncodeBatch (one
	// per decision that leaves the no-renorm fast path). It accumulates
	// across Reset so Tier-1 can read a whole block's total; TakeRenorms
	// reads and clears it.
	renorms int64
}

// TakeRenorms returns the renormalization-chunk count accumulated since
// the last call and resets it — the observability layer's MQ workload
// counter.
func (e *Encoder) TakeRenorms() int64 {
	n := e.renorms
	e.renorms = 0
	return n
}

// Reset prepares the encoder for a new codeword segment, reusing the
// output buffer's storage.
func (e *Encoder) Reset() {
	e.a = 0x8000
	e.c = 0
	e.ct = 12
	e.b = -1
	e.buf = e.buf[:0]
}

// Encode codes decision d (0 or 1) in context cx. The common path — a
// most-probable symbol with no renormalization — returns after one
// compare and two adds; the renormalization loop is unrolled inline so
// the interval registers stay out of memory between shifts.
func (e *Encoder) Encode(d int, cx *Context) {
	s := cx.s
	qe := s.qe
	a := e.a - qe
	if uint8(d) == s.mps {
		// CODEMPS
		if a&0x8000 != 0 {
			e.a = a
			e.c += qe
			return
		}
		if a < qe {
			a = qe
		} else {
			e.c += qe
		}
		cx.s = qeTable94[s.nmps]
	} else {
		// CODELPS (the MPS switch is folded into the nlps row)
		if a < qe {
			e.c += qe
		} else {
			a = qe
		}
		cx.s = qeTable94[s.nlps]
	}
	// RENORME
	c, ct := e.c, e.ct
	for {
		a <<= 1
		c <<= 1
		ct--
		if ct == 0 {
			e.c = c
			e.byteOut()
			c, ct = e.c, e.ct
		}
		if a&0x8000 != 0 {
			break
		}
	}
	e.a, e.c, e.ct = a, c, ct
}

// EncodeBatch codes a run of packed decisions — each op is ctx<<1 | d,
// an index into cxs plus the decision bit — in order. It is exactly
// equivalent to calling Encode for each op; batching exists so the
// interval registers a, c and the shift counter stay in locals across
// the whole run instead of round-tripping through the struct per bit.
// Tier-1 can defer coding this way because its decision sequence never
// depends on the encoder's interval state.
func (e *Encoder) EncodeBatch(ops []uint8, cxs []Context) {
	a, c, ct := e.a, e.c, e.ct
	nren := int64(0)
	for _, op := range ops {
		cx := &cxs[op>>1]
		s := cx.s
		qe := s.qe
		dm := op&1 ^ s.mps // 0 ⇒ most probable symbol
		a -= qe
		// CODEMPS without renormalization — the common case for adapted
		// contexts — needs dm == 0 and bit 15 of a set. a never exceeds
		// 0xFFFF, so shifting by dm folds both tests into one branch.
		if a>>dm&0x8000 != 0 {
			c += qe
			continue
		}
		// Interval assignment (with conditional exchange) and next
		// state, arranged as single-assignment conditionals so the
		// unpredictable decision bit selects via CMOV instead of a
		// branch. exch ⇔ the sub-interval becomes qe: on the MPS path
		// when a < qe, on the LPS path when a ≥ qe.
		exch := (a < qe) == (dm == 0)
		nc := c + qe
		if exch {
			nc = c
		}
		if exch {
			a = qe
		}
		c = nc
		ni := s.nlps
		if dm == 0 {
			ni = s.nmps
		}
		cx.s = qeTable94[ni]
		// RENORME: a < 0x8000 here, so at least one shift. Shifting in
		// ct-bounded chunks keeps c within its 28-bit register between
		// byte-outs, exactly as the bit-at-a-time loop does.
		nren++
		shift := bits.LeadingZeros32(a) - 16
		for shift >= ct {
			a <<= uint(ct)
			c <<= uint(ct)
			shift -= ct
			e.c = c
			e.byteOut()
			c, ct = e.c, e.ct
		}
		a <<= uint(shift)
		c <<= uint(shift)
		ct -= shift
	}
	e.a, e.c, e.ct = a, c, ct
	e.renorms += nren
}

func (e *Encoder) byteOut() {
	if e.b >= 0 && e.buf[e.b] == 0xFF {
		e.stuff()
		return
	}
	if e.c < 0x8000000 {
		e.emit(byte(e.c>>19), 0x7FFFF, 8)
		return
	}
	// Propagate the carry into the byte register.
	if e.b >= 0 {
		e.buf[e.b]++
		if e.buf[e.b] == 0xFF {
			e.c &= 0x7FFFFFF
			e.stuff()
			return
		}
	}
	e.emit(byte(e.c>>19), 0x7FFFF, 8)
}

func (e *Encoder) stuff() {
	e.buf = append(e.buf, byte(e.c>>20))
	e.b = len(e.buf) - 1
	e.c &= 0xFFFFF
	e.ct = 7
}

func (e *Encoder) emit(v byte, mask uint32, ct int) {
	e.buf = append(e.buf, v)
	e.b = len(e.buf) - 1
	e.c &= mask
	e.ct = ct
}

// Flush terminates the codeword segment so any prefix of future
// encoder output is independent of it, and returns the complete
// segment bytes (valid until the next Reset).
func (e *Encoder) Flush() []byte {
	// SETBITS
	tempC := e.c + e.a - 1
	e.c |= 0xFFFF
	if e.c >= tempC {
		e.c -= 0x8000
	}
	e.c <<= uint(e.ct)
	e.byteOut()
	e.c <<= uint(e.ct)
	e.byteOut()
	// A trailing 0xFF would be a marker prefix; the standard drops it.
	if n := len(e.buf); n > 0 && e.buf[n-1] == 0xFF {
		e.buf = e.buf[:n-1]
	}
	return e.buf
}

// NumBytes reports the bytes emitted so far (before Flush), a lower
// bound on the final segment length used for rate estimation.
func (e *Encoder) NumBytes() int { return len(e.buf) }

// Decoder is the MQ arithmetic decoder. Reading past the end of the
// data (as happens when decoding a truncated segment) feeds 1-bits, as
// the standard prescribes for marker-terminated segments.
type Decoder struct {
	a, c uint32
	ct   int
	bp   int
	data []byte
}

// NewDecoder initializes a decoder over one codeword segment.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{data: data}
	d.c = uint32(d.byteAt(0)) << 16
	d.bp = 0
	d.byteIn()
	d.c <<= 7
	d.ct -= 7
	d.a = 0x8000
	return d
}

// byteAt returns data[i], or 0xFF past the end.
func (d *Decoder) byteAt(i int) byte {
	if i >= len(d.data) {
		return 0xFF
	}
	return d.data[i]
}

func (d *Decoder) byteIn() {
	if d.byteAt(d.bp) == 0xFF {
		if d.byteAt(d.bp+1) > 0x8F {
			// Marker (or synthetic end-of-data): feed 1-bits forever.
			d.c += 0xFF00
			d.ct = 8
		} else {
			d.bp++
			d.c += uint32(d.byteAt(d.bp)) << 9
			d.ct = 7
		}
	} else {
		d.bp++
		d.c += uint32(d.byteAt(d.bp)) << 8
		d.ct = 8
	}
}

// Decode returns the next decision in context cx. As in the encoder,
// the common no-renormalization path returns early and the
// renormalization loop is inlined to keep the interval registers live.
func (d *Decoder) Decode(cx *Context) int {
	s := cx.s
	qe := s.qe
	var bit uint8
	a := d.a - qe
	if (d.c>>16)&0xFFFF < qe {
		// LPS exchange path.
		if a < qe {
			bit = s.mps
			cx.s = qeTable94[s.nmps]
		} else {
			bit = 1 - s.mps
			cx.s = qeTable94[s.nlps]
		}
		a = qe
	} else {
		d.c -= qe << 16
		if a&0x8000 != 0 {
			d.a = a
			return int(s.mps)
		}
		if a < qe {
			bit = 1 - s.mps
			cx.s = qeTable94[s.nlps]
		} else {
			bit = s.mps
			cx.s = qeTable94[s.nmps]
		}
	}
	// RENORMD
	for {
		if d.ct == 0 {
			d.byteIn()
		}
		a <<= 1
		d.c <<= 1
		d.ct--
		if a&0x8000 != 0 {
			break
		}
	}
	d.a = a
	return int(bit)
}
