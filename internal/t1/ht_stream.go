package t1

import "encoding/binary"

// HTJ2K (ITU-T T.814 / JPEG2000 Part 15) byte-stream primitives for
// the FBCOT block coder: one bit packer/unpacker with the HT stuffing
// rule, shared by the MagSgn, MEL and VLC streams and the raw-bit
// refinement passes, plus the MEL adaptive run-length coder. The quad
// scan that drives them lives in ht_encode.go / ht_decode.go; the
// deviations from the published stream layout (forward VLC with
// explicit lengths instead of the reversed-suffix arrangement) are
// documented in DESIGN.md.

// htWriter packs bits LSB-first into bytes with the HT stuffing rule:
// a byte following an emitted 0xFF carries only 7 payload bits (bit 7
// forced clear), so no stream interior ever contains 0xFF followed by
// a byte >= 0x80 — the property the standard relies on to keep
// codeword segments free of inadvertent marker codes.
//
// Emission is lazy: put only accumulates, and bytes move to buf once
// 32 bits are pending. Any single put carries at most 32 bits and fewer
// than 32 are pending between calls, so the 64-bit accumulator never
// overflows. Each byte's stuffing depends only on the byte before it,
// so emitting late produces exactly the bytes emitting early would.
type htWriter struct {
	buf  []byte
	acc  uint64 // pending bits, LSB first
	n    uint   // number of pending bits (< 32 between calls)
	last byte   // last emitted byte, for the stuffing rule
}

func (w *htWriter) reset() {
	w.buf = w.buf[:0]
	w.acc, w.n, w.last = 0, 0, 0
}

// put appends the low nb bits of v (nb <= 32, v < 1<<nb).
func (w *htWriter) put(v uint32, nb uint) {
	w.acc |= uint64(v) << w.n
	w.n += nb
	if w.n >= 32 {
		w.drain()
	}
}

// putZeros appends nb zero bits.
func (w *htWriter) putZeros(nb int) {
	for ; nb > 32; nb -= 32 {
		w.put(0, 32)
	}
	w.put(0, uint(nb))
}

// drain emits bytes until fewer than 32 bits are pending. Four bytes go
// out in one store when the stuffing rule cannot fire among them: the
// last emitted byte and the first three are not 0xFF (the fourth only
// decides the byte after it, which the next round checks through last).
// Otherwise one byte goes out, carrying 7 bits after a 0xFF and 8
// bits elsewhere.
func (w *htWriter) drain() {
	for w.n >= 32 {
		lo := uint32(w.acc)
		if w.last != 0xFF {
			// A zero byte in y marks a 0xFF among lo's low three bytes
			// (the top byte of y is forced non-zero).
			y := ^lo | 0xFF000000
			if (y-0x01010101)&^y&0x80808080 == 0 {
				w.buf = append(w.buf, byte(lo), byte(lo>>8), byte(lo>>16), byte(lo>>24))
				w.last = byte(lo >> 24)
				w.acc >>= 32
				w.n -= 32
				continue
			}
			w.buf = append(w.buf, byte(lo))
			w.last = byte(lo)
			w.acc >>= 8
			w.n -= 8
			continue
		}
		b := byte(lo) & 0x7F
		w.buf = append(w.buf, b)
		w.last = b
		w.acc >>= 7
		w.n -= 7
	}
}

// flush emits every pending bit, padding the final partial byte with
// zero bits. The decoder reads exactly the bits the coding process asks
// for, so the padding is never consumed.
func (w *htWriter) flush() {
	for w.n > 0 {
		var b byte
		if w.last == 0xFF {
			b = byte(w.acc) & 0x7F
			w.acc >>= 7
			if w.n > 7 {
				w.n -= 7
			} else {
				w.n = 0
			}
		} else {
			b = byte(w.acc)
			w.acc >>= 8
			if w.n > 8 {
				w.n -= 8
			} else {
				w.n = 0
			}
		}
		w.buf = append(w.buf, b)
		w.last = b
	}
}

// htReader mirrors htWriter bit for bit. It refills 32 bits at a time
// when the stuffing rule cannot fire among the next four bytes — the
// test htWriter.drain uses — and one byte at a time otherwise. Reads
// past the end of the stream return zero bits, so a truncated or
// corrupt pass degrades into zeros instead of panicking. Those zero
// bits are counted in pad: they sit above every real bit in acc, so a
// read has consumed one exactly when fewer than pad bits remain
// (overrun). An intact stream never needs a bit beyond its declared
// length (htWriter.flush emits every pending payload bit). Structural
// damage is caught by the quad-level consistency checks in
// ht_decode.go, which also inspect overrun.
type htReader struct {
	data []byte
	pos  int
	acc  uint64
	n    uint // bits in acc
	pad  uint // zero bits appended past the end of data
	last byte
}

func (r *htReader) init(data []byte) {
	r.data, r.pos = data, 0
	r.acc, r.n, r.pad, r.last = 0, 0, 0, 0
}

// fill tops acc up to at least 32 bits.
func (r *htReader) fill() {
	for r.n < 32 {
		if r.last != 0xFF && r.pos+4 <= len(r.data) {
			lo := binary.LittleEndian.Uint32(r.data[r.pos:])
			// A zero byte in y marks a 0xFF among lo's low three bytes
			// (the top byte of y is forced non-zero).
			y := ^lo | 0xFF000000
			if (y-0x01010101)&^y&0x80808080 == 0 {
				r.acc |= uint64(lo) << r.n
				r.n += 32
				r.pos += 4
				r.last = byte(lo >> 24)
				return
			}
		}
		nb := uint(8)
		if r.last == 0xFF {
			nb = 7
		}
		var b byte
		if r.pos < len(r.data) {
			b = r.data[r.pos]
			r.pos++
			r.acc |= uint64(b&byte(1<<nb-1)) << r.n
		} else {
			r.pad += nb
		}
		r.n += nb
		r.last = b
	}
}

// get reads nb bits (nb <= 32).
func (r *htReader) get(nb uint) uint32 {
	if r.n < nb {
		r.fill()
	}
	v := uint32(r.acc) & (1<<nb - 1)
	r.acc >>= nb
	r.n -= nb
	return v
}

// overrun reports whether a read needed a bit past the end of the
// stream.
func (r *htReader) overrun() bool { return r.n < r.pad }

// melExponent is the MEL state machine's run-length exponent table
// (T.814 Table 4): state k codes complete zero-runs of length
// 2^melExponent[k] in a single bit.
var melExponent = [13]uint{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5}

// melEncoder is the adaptive run-length coder for AZC quad
// significance: event 0 = "this all-zero-context quad stays empty",
// event 1 = "it turns significant". Long empty runs in flat regions
// collapse to one bit per 2^5 quads at the top state.
type melEncoder struct {
	w   htWriter
	k   int    // state 0..12
	run uint32 // zeros accumulated toward the current threshold
}

func (m *melEncoder) reset() {
	m.w.reset()
	m.k, m.run = 0, 0
}

func (m *melEncoder) encode(bit int) {
	if bit == 0 {
		m.run++
		if m.run == 1<<melExponent[m.k] {
			m.w.put(1, 1)
			m.run = 0
			if m.k < 12 {
				m.k++
			}
		}
		return
	}
	e := melExponent[m.k]
	m.w.put(0, 1)
	if e > 0 {
		m.w.put(m.run, e)
	}
	m.run = 0
	if m.k > 0 {
		m.k--
	}
}

// encodeZeros codes n consecutive zero events, hopping whole runs at a
// time — the fast path for all-quiet quad rows, where the encoder's
// row OR masks prove every quad is AZC and empty without visiting it.
func (m *melEncoder) encodeZeros(n int) {
	for n > 0 {
		need := int(uint32(1)<<melExponent[m.k] - m.run)
		if n < need {
			m.run += uint32(n)
			return
		}
		n -= need
		m.w.put(1, 1)
		m.run = 0
		if m.k < 12 {
			m.k++
		}
	}
}

// flush closes a pending partial run as a complete one (the decoder
// never consumes the surplus zeros) and flushes the bit packer.
func (m *melEncoder) flush() {
	if m.run > 0 {
		m.w.put(1, 1)
	}
	m.w.flush()
}

// melDecoder mirrors melEncoder event for event.
type melDecoder struct {
	r    htReader
	k    int
	runs uint32 // pending zero events
	one  bool   // a pending 1 event after the zeros drain
}

func (m *melDecoder) init(data []byte) {
	m.r.init(data)
	m.k, m.runs, m.one = 0, 0, false
}

func (m *melDecoder) decode() int {
	if m.runs > 0 {
		m.runs--
		return 0
	}
	if m.one {
		m.one = false
		return 1
	}
	if m.r.get(1) == 1 { // complete run of 2^E[k] zeros
		m.runs = 1 << melExponent[m.k]
		if m.k < 12 {
			m.k++
		}
		m.runs--
		return 0
	}
	e := melExponent[m.k] // partial run of r zeros, then a 1
	var r uint32
	if e > 0 {
		r = m.r.get(e)
	}
	if m.k > 0 {
		m.k--
	}
	if r > 0 {
		m.runs = r - 1
		m.one = true
		return 0
	}
	return 1
}

// uexpCode is the prefix code of u = U_q − 1, a quad's magnitude-
// exponent bound (read LSB-first): 0 → u=0; 10 → u=1; 110 + 2 bits →
// u=2..5; 111 + 5 bits → u=6..37. Entry u holds the code word in its
// low byte and the word's length above it, so a word goes out in one
// put.
var uexpCode = func() (t [38]uint16) {
	for u := range t {
		switch {
		case u == 0:
			t[u] = 1 << 8
		case u == 1:
			t[u] = 1 | 2<<8
		case u <= 5:
			t[u] = uint16(3|(u-2)<<3) | 5<<8
		default:
			t[u] = uint16(7|(u-6)<<3) | 8<<8
		}
	}
	return t
}()

// uexpDecode inverts uexpCode: entry b, for the next 8 bits b of the
// stream (LSB first), holds the u whose code word b begins with, and
// the word's length above it. No word is longer than 8 bits.
var uexpDecode = func() (t [256]uint16) {
	for u, c := range uexpCode {
		n := c >> 8
		for hi := uint16(0); hi < 1<<(8-n); hi++ {
			t[c&0xFF|hi<<n] = uint16(u) | n<<8
		}
	}
	return t
}()

// getUExp reads one U_q − 1 code word with a single 8-bit peek.
func getUExp(r *htReader) int {
	if r.n < 8 {
		r.fill()
	}
	e := uexpDecode[r.acc&0xFF]
	n := uint(e >> 8)
	r.acc >>= n
	r.n -= n
	return int(e & 0xFF)
}
