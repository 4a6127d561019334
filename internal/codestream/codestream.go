// Package codestream reads and writes the JPEG2000 codestream framing:
// SOC/SIZ/COD/QCD main header marker segments, the SOT/SOD tile
// wrapper, and the EOC trailer (ITU-T T.800 Annex A). The marker
// structure follows the standard; the QCD payload is extended to carry
// the per-component, per-band M_b plane counts and the base quantizer
// step this codec derives from measured synthesis gains (documented
// divergence: a standard decoder would recompute these from exponent/
// mantissa fields, which would tie us to the standard's hard-coded gain
// tables instead of the measured ones).
package codestream

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Marker codes.
const (
	SOC = 0xFF4F
	SIZ = 0xFF51
	COD = 0xFF52
	QCD = 0xFF5C
	SOT = 0xFF90
	SOP = 0xFF91 // start of packet (resilience)
	SOD = 0xFF93
	EOC = 0xFFD9
)

// Header carries everything a decoder needs before the packet data.
type Header struct {
	W, H         int
	NComp        int
	Depth        int
	Levels       int
	CBW          int // code block width
	CBH          int
	TileW, TileH int  // tile dimensions (0 = one tile covering the image)
	SOPMarkers   bool // packets are prefixed with SOP resync markers
	Layers       int  // quality layers (>= 1)
	Progression  int  // 0 = LRCP, 1 = RLCP
	Lossless     bool
	UseMCT       bool
	TermAll      bool
	SegSym       bool // cleanup passes end with the 1010 segmentation symbol
	HT           bool // blocks coded with the high-throughput (Part 15) coder
	BaseDelta    float64
	Mb           [][]int // [component][band] coded bit planes
}

func put16(b []byte, v int) { binary.BigEndian.PutUint16(b, uint16(v)) }
func put32(b []byte, v int) { binary.BigEndian.PutUint32(b, uint32(v)) }

func appendMarker(out []byte, code int) []byte {
	return append(out, byte(code>>8), byte(code))
}

// appendSegment appends marker + 2-byte length (covering the length
// field itself plus payload) + payload.
func appendSegment(out []byte, code int, payload []byte) []byte {
	out = appendMarker(out, code)
	var l [2]byte
	put16(l[:], len(payload)+2)
	return append(append(out, l[:]...), payload...)
}

// log2int returns log2 for exact powers of two.
func log2int(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Encode wraps a single tile's packet body in a complete codestream.
func Encode(h *Header, body []byte) []byte {
	return EncodeTiles(h, [][]byte{body})
}

// EncodeTiles wraps one packet body per tile, emitting one SOT/SOD
// tile-part per tile in index order.
func EncodeTiles(h *Header, bodies [][]byte) []byte {
	out := appendMarker(nil, SOC)

	// SIZ.
	siz := make([]byte, 36+3*h.NComp)
	rsiz := 0
	if h.HT {
		rsiz = 0x4000 // Part 15 capability: HT code blocks present
	}
	put16(siz[0:], rsiz)
	put32(siz[2:], h.W)
	put32(siz[6:], h.H)
	put32(siz[10:], 0) // XOsiz
	put32(siz[14:], 0)
	tw, th := h.TileW, h.TileH
	if tw <= 0 || tw > h.W {
		tw = h.W
	}
	if th <= 0 || th > h.H {
		th = h.H
	}
	put32(siz[18:], tw)
	put32(siz[22:], th)
	put32(siz[26:], 0)
	put32(siz[30:], 0)
	put16(siz[34:], h.NComp)
	for c := 0; c < h.NComp; c++ {
		siz[36+3*c] = byte(h.Depth - 1) // Ssiz: unsigned, depth
		siz[37+3*c] = 1                 // XRsiz
		siz[38+3*c] = 1                 // YRsiz
	}
	out = appendSegment(out, SIZ, siz)

	// COD.
	cod := make([]byte, 12)
	cod[0] = 0 // Scod: default precincts
	if h.SOPMarkers {
		cod[0] |= 0x02 // SOP marker segments used
		cod[0] |= 0x04 // EPH markers used (emitted together)
	}
	cod[1] = byte(h.Progression)
	layers := h.Layers
	if layers < 1 {
		layers = 1
	}
	put16(cod[2:], layers)
	if h.UseMCT {
		cod[4] = 1
	}
	cod[5] = byte(h.Levels)
	cod[6] = byte(log2int(h.CBW) - 2)
	cod[7] = byte(log2int(h.CBH) - 2)
	if h.TermAll {
		cod[8] = 0x04 // code block style: terminate each pass
	}
	if h.SegSym {
		cod[8] |= 0x20 // code block style: segmentation symbols
	}
	if h.HT {
		cod[8] |= 0x40 // code block style: HT code blocks (HTDECLARED)
	}
	if h.Lossless {
		cod[9] = 1 // 5/3 reversible
	}
	// cod[10:12] spare (precinct defaults).
	out = appendSegment(out, COD, cod)

	// QCD (extended payload; see package comment).
	nb := 3*h.Levels + 1
	qcd := make([]byte, 1+8+h.NComp*nb)
	if h.Lossless {
		qcd[0] = 0x20 // no quantization
	} else {
		qcd[0] = 0x22 // scalar expounded
	}
	binary.BigEndian.PutUint64(qcd[1:], math.Float64bits(h.BaseDelta))
	for c := 0; c < h.NComp; c++ {
		for b := 0; b < nb; b++ {
			qcd[9+c*nb+b] = byte(h.Mb[c][b])
		}
	}
	out = appendSegment(out, QCD, qcd)

	// One SOT/SOD tile-part per tile.
	for i, body := range bodies {
		sot := make([]byte, 8)
		put16(sot[0:], i)              // Isot
		put32(sot[2:], 12+2+len(body)) // Psot: SOT segment + SOD + body
		sot[6] = 0                     // TPsot
		sot[7] = 1                     // TNsot
		out = appendSegment(out, SOT, sot)
		out = appendMarker(out, SOD)
		out = append(out, body...)
	}
	out = appendMarker(out, EOC)
	return out
}

// DecodeTiles parses a codestream, returning the header and every
// tile's packet body in tile-index order, under DefaultLimits.
func DecodeTiles(data []byte) (*Header, [][]byte, error) {
	return DecodeTilesLimits(data, DefaultLimits())
}

// DecodeTilesLimits is DecodeTiles with caller-supplied header limits,
// enforced as each marker segment is parsed — a hostile SIZ or COD is
// rejected before the header tables it implies are allocated. Any
// marker segment it does not know, and any tile-part out of index
// order, rejects the stream.
func DecodeTilesLimits(data []byte, lim Limits) (*Header, [][]byte, error) {
	rd := &reader{data: data}
	h, err := mainHeader(rd, lim, func(m int) error {
		return fmt.Errorf("codestream: unexpected marker %#x", m)
	})
	if err != nil {
		return nil, nil, err
	}
	var bodies [][]byte
	for {
		m, err := rd.marker()
		if err != nil {
			return nil, nil, err
		}
		switch m {
		case SOT:
			isot, bodyLen, err := rd.tilePart()
			if err != nil {
				return nil, nil, err
			}
			if isot != len(bodies) {
				return nil, nil, fmt.Errorf("codestream: tile parts out of order")
			}
			if rd.pos+bodyLen > len(data) {
				return nil, nil, fmt.Errorf("codestream: tile length %d out of range", bodyLen+14)
			}
			bodies = append(bodies, data[rd.pos:rd.pos+bodyLen])
			rd.pos += bodyLen
		case EOC:
			if len(bodies) == 0 {
				return nil, nil, fmt.Errorf("codestream: EOC before any tile-part")
			}
			return h, bodies, nil
		default:
			return nil, nil, fmt.Errorf("codestream: unexpected marker %#x", m)
		}
	}
}

// mainHeader reads SOC and the main header's marker segments up to the
// last of SIZ, COD and QCD, enforcing lim as each is parsed. Any other
// marker segment before then goes to other, which skips it (returning
// nil) or rejects the stream. A tile-part or EOC before the header is
// complete rejects it too.
func mainHeader(rd *reader, lim Limits, other func(m int) error) (*Header, error) {
	if m, err := rd.marker(); err != nil || m != SOC {
		return nil, fmt.Errorf("codestream: missing SOC (got %#x, err %v)", m, err)
	}
	rd.mark("SOC", 0)
	h := &Header{}
	seenSIZ, seenCOD, seenQCD := false, false, false
	for !seenSIZ || !seenCOD || !seenQCD {
		at := rd.pos
		m, err := rd.marker()
		if err != nil {
			return nil, err
		}
		if m == SOT || m == EOC {
			return nil, fmt.Errorf("codestream: main header ends before SIZ, COD and QCD")
		}
		if m != SIZ && m != COD && m != QCD {
			if err := other(m); err != nil {
				return nil, err
			}
			continue
		}
		p, err := rd.segment()
		if err != nil {
			return nil, err
		}
		switch m {
		case SIZ:
			err, seenSIZ = parseSIZ(p, h, lim), true
			rd.mark("SIZ", at)
		case COD:
			err, seenCOD = parseCOD(p, h, lim), true
			rd.mark("COD", at)
		case QCD:
			if !seenSIZ || !seenCOD {
				return nil, fmt.Errorf("codestream: QCD before SIZ/COD")
			}
			err, seenQCD = parseQCD(p, h), true
			rd.mark("QCD", at)
		}
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// parseSIZ validates and loads the geometry fields of a SIZ payload.
func parseSIZ(p []byte, h *Header, lim Limits) error {
	if len(p) < 38 {
		return fmt.Errorf("codestream: SIZ too short")
	}
	h.W = int(binary.BigEndian.Uint32(p[2:]))
	h.H = int(binary.BigEndian.Uint32(p[6:]))
	h.NComp = int(binary.BigEndian.Uint16(p[34:]))
	if h.NComp <= 0 || len(p) < 36+3*h.NComp {
		return fmt.Errorf("codestream: bad SIZ component count")
	}
	if h.W <= 0 || h.H <= 0 || h.W > 1<<26 || h.H > 1<<26 {
		return fmt.Errorf("codestream: implausible image size %dx%d", h.W, h.H)
	}
	h.TileW = int(binary.BigEndian.Uint32(p[18:]))
	h.TileH = int(binary.BigEndian.Uint32(p[22:]))
	if h.TileW <= 0 || h.TileH <= 0 || h.TileW > h.W || h.TileH > h.H {
		return fmt.Errorf("codestream: bad tile size %dx%d", h.TileW, h.TileH)
	}
	h.Depth = int(p[36]) + 1
	if h.Depth < 1 || h.Depth > 16 {
		return fmt.Errorf("codestream: unsupported depth %d", h.Depth)
	}
	return lim.checkSIZ(h)
}

// parseCOD validates and loads the coding-style fields of a COD payload.
func parseCOD(p []byte, h *Header, lim Limits) error {
	if len(p) < 10 {
		return fmt.Errorf("codestream: COD too short")
	}
	h.SOPMarkers = p[0]&0x02 != 0
	h.Progression = int(p[1])
	if h.Progression > 1 {
		return fmt.Errorf("codestream: unsupported progression order %d", h.Progression)
	}
	h.Layers = int(binary.BigEndian.Uint16(p[2:]))
	if h.Layers < 1 || h.Layers > 1024 {
		return fmt.Errorf("codestream: implausible layer count %d", h.Layers)
	}
	h.UseMCT = p[4] == 1
	h.Levels = int(p[5])
	if h.Levels > 32 {
		return fmt.Errorf("codestream: %d decomposition levels out of range", h.Levels)
	}
	if p[6] > 10 || p[7] > 10 {
		return fmt.Errorf("codestream: code block exponent out of range")
	}
	h.CBW = 1 << (int(p[6]) + 2)
	h.CBH = 1 << (int(p[7]) + 2)
	h.TermAll = p[8]&0x04 != 0
	h.SegSym = p[8]&0x20 != 0
	h.HT = p[8]&0x40 != 0
	h.Lossless = p[9] == 1
	return lim.checkCOD(h)
}

// parseQCD validates and loads the quantization fields of a QCD
// payload (requires SIZ and COD already parsed for the table shape).
func parseQCD(p []byte, h *Header) error {
	nb := 3*h.Levels + 1
	if len(p) < 9+h.NComp*nb {
		return fmt.Errorf("codestream: QCD too short")
	}
	h.BaseDelta = math.Float64frombits(binary.BigEndian.Uint64(p[1:]))
	h.Mb = make([][]int, h.NComp)
	for c := 0; c < h.NComp; c++ {
		h.Mb[c] = make([]int, nb)
		for b := 0; b < nb; b++ {
			h.Mb[c][b] = int(p[9+c*nb+b])
		}
	}
	return nil
}

// Marker is one marker segment of the codestream framing.
type Marker struct {
	Name   string
	Offset int
	Len    int // marker + segment bytes (tile-part body excluded for SOT)
}

type reader struct {
	data  []byte
	pos   int
	marks []Marker // the framing read so far, in stream order
}

// mark records the marker segment that starts at at and ends at the
// read position.
func (r *reader) mark(name string, at int) {
	r.marks = append(r.marks, Marker{Name: name, Offset: at, Len: r.pos - at})
}

func (r *reader) marker() (int, error) {
	if r.pos+2 > len(r.data) {
		return 0, fmt.Errorf("codestream: truncated at %d", r.pos)
	}
	m := int(r.data[r.pos])<<8 | int(r.data[r.pos+1])
	r.pos += 2
	if m>>8 != 0xFF {
		return 0, fmt.Errorf("codestream: expected marker at %d, got %#x", r.pos-2, m)
	}
	return m, nil
}

func (r *reader) segment() ([]byte, error) {
	if r.pos+2 > len(r.data) {
		return nil, fmt.Errorf("codestream: truncated length at %d", r.pos)
	}
	l := int(binary.BigEndian.Uint16(r.data[r.pos:]))
	if l < 2 || r.pos+l > len(r.data) {
		return nil, fmt.Errorf("codestream: bad segment length %d at %d", l, r.pos)
	}
	p := r.data[r.pos+2 : r.pos+l]
	r.pos += l
	return p, nil
}

// tilePart reads the rest of a tile-part header — the SOT marker
// segment whose marker was just read, then the SOD marker — and
// returns the tile index Isot and the body length Psot declares.
func (r *reader) tilePart() (isot, bodyLen int, err error) {
	sot := r.pos - 2
	p, err := r.segment()
	if err != nil {
		return 0, 0, err
	}
	if len(p) < 8 {
		return 0, 0, fmt.Errorf("codestream: SOT too short")
	}
	r.mark("SOT", sot)
	isot = int(binary.BigEndian.Uint16(p[0:]))
	psot := int(binary.BigEndian.Uint32(p[2:]))
	sod := r.pos
	if m, err := r.marker(); err != nil || m != SOD {
		return 0, 0, fmt.Errorf("codestream: missing SOD")
	}
	r.mark("SOD", sod)
	if psot < 12+2 {
		return 0, 0, fmt.Errorf("codestream: tile length %d out of range", psot)
	}
	return isot, psot - 12 - 2, nil
}
