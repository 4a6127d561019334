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

func appendMarker(out []byte, code int) []byte {
	return binary.BigEndian.AppendUint16(out, uint16(code))
}

// appendSegmentHead appends a marker and the 2-byte length of a
// segment whose payload of n bytes the caller appends next (the length
// covers the length field itself plus the payload).
func appendSegmentHead(out []byte, code, n int) []byte {
	return binary.BigEndian.AppendUint16(appendMarker(out, code), uint16(n+2))
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

// Framing sizes: a tile-part header is the 12-byte SOT marker segment
// plus the SOD marker; EOC is one marker.
const (
	TilePartHeaderLen = 12 + 2
	EOCLen            = 2
)

// HeaderLen returns the byte length AppendHeader writes for h: SOC and
// the SIZ, COD and QCD marker segments.
func HeaderLen(h *Header) int {
	return 2 + (4 + 36 + 3*h.NComp) + (4 + 12) + (4 + 9 + h.NComp*(3*h.Levels+1))
}

// Encode wraps a single tile's packet body in a complete codestream.
func Encode(h *Header, body []byte) []byte {
	return EncodeTiles(h, [][]byte{body})
}

// EncodeTiles wraps one packet body per tile, emitting one SOT/SOD
// tile-part per tile in index order, into one buffer sized up front.
// It is the framing an encoder that writes its packets in place runs
// piecewise: AppendHeader, then per tile AppendTilePart, the body and
// EndTilePart, then AppendEOC.
func EncodeTiles(h *Header, bodies [][]byte) []byte {
	n := HeaderLen(h) + EOCLen
	for _, body := range bodies {
		n += TilePartHeaderLen + len(body)
	}
	out := AppendHeader(make([]byte, 0, n), h)
	for i, body := range bodies {
		var sot int
		out, sot = AppendTilePart(out, i)
		out = append(out, body...)
		EndTilePart(out, sot)
	}
	return AppendEOC(out)
}

// AppendHeader appends the main header for h to dst: SOC, then the
// SIZ, COD and QCD marker segments (HeaderLen bytes).
func AppendHeader(dst []byte, h *Header) []byte {
	be := binary.BigEndian
	out := appendMarker(dst, SOC)

	// SIZ.
	out = appendSegmentHead(out, SIZ, 36+3*h.NComp)
	rsiz := 0
	if h.HT {
		rsiz = 0x4000 // Part 15 capability: HT code blocks present
	}
	tw, th := h.TileW, h.TileH
	if tw <= 0 || tw > h.W {
		tw = h.W
	}
	if th <= 0 || th > h.H {
		th = h.H
	}
	out = be.AppendUint16(out, uint16(rsiz))
	out = be.AppendUint32(out, uint32(h.W))
	out = be.AppendUint32(out, uint32(h.H))
	out = be.AppendUint32(out, 0) // XOsiz
	out = be.AppendUint32(out, 0) // YOsiz
	out = be.AppendUint32(out, uint32(tw))
	out = be.AppendUint32(out, uint32(th))
	out = be.AppendUint32(out, 0) // XTOsiz
	out = be.AppendUint32(out, 0) // YTOsiz
	out = be.AppendUint16(out, uint16(h.NComp))
	for c := 0; c < h.NComp; c++ {
		// Ssiz (unsigned, depth), XRsiz, YRsiz.
		out = append(out, byte(h.Depth-1), 1, 1)
	}

	// COD.
	scod := byte(0) // default precincts
	if h.SOPMarkers {
		scod |= 0x02 // SOP marker segments used
		scod |= 0x04 // EPH markers used (emitted together)
	}
	layers := h.Layers
	if layers < 1 {
		layers = 1
	}
	mctFlag := byte(0)
	if h.UseMCT {
		mctFlag = 1
	}
	style := byte(0)
	if h.TermAll {
		style = 0x04 // code block style: terminate each pass
	}
	if h.SegSym {
		style |= 0x20 // code block style: segmentation symbols
	}
	if h.HT {
		style |= 0x40 // code block style: HT code blocks (HTDECLARED)
	}
	transform := byte(0)
	if h.Lossless {
		transform = 1 // 5/3 reversible
	}
	out = appendSegmentHead(out, COD, 12)
	out = append(out, scod, byte(h.Progression))
	out = be.AppendUint16(out, uint16(layers))
	out = append(out, mctFlag, byte(h.Levels),
		byte(log2int(h.CBW)-2), byte(log2int(h.CBH)-2), style, transform,
		0, 0) // spare (precinct defaults)

	// QCD (extended payload; see package comment).
	nb := 3*h.Levels + 1
	out = appendSegmentHead(out, QCD, 9+h.NComp*nb)
	sqcd := byte(0x22) // scalar expounded
	if h.Lossless {
		sqcd = 0x20 // no quantization
	}
	out = append(out, sqcd)
	out = be.AppendUint64(out, math.Float64bits(h.BaseDelta))
	for c := 0; c < h.NComp; c++ {
		for b := 0; b < nb; b++ {
			out = append(out, byte(h.Mb[c][b]))
		}
	}
	return out
}

// AppendTilePart appends the header of tile isot's one tile-part to
// dst — its SOT marker segment, with Psot left for EndTilePart to
// fill, and the SOD marker — and returns the extended slice and the
// offset of the SOT marker. The tile's packets go after it.
func AppendTilePart(dst []byte, isot int) ([]byte, int) {
	sot := len(dst)
	out := appendSegmentHead(dst, SOT, 8)
	out = binary.BigEndian.AppendUint16(out, uint16(isot))
	out = binary.BigEndian.AppendUint32(out, 0) // Psot, patched by EndTilePart
	out = append(out, 0, 1)                     // TPsot, TNsot
	return appendMarker(out, SOD), sot
}

// EndTilePart closes the tile-part whose SOT marker starts at offset
// sot of buf and runs to the end of buf: it writes Psot, the length of
// the SOT segment, SOD and the packets.
func EndTilePart(buf []byte, sot int) {
	binary.BigEndian.PutUint32(buf[sot+6:], uint32(len(buf)-sot))
}

// AppendEOC appends the end-of-codestream marker.
func AppendEOC(dst []byte) []byte { return appendMarker(dst, EOC) }

// DecodeTiles parses a codestream, returning the header and every
// tile's packet body in tile-index order, under DefaultLimits.
func DecodeTiles(data []byte) (*Header, [][]byte, error) {
	return DecodeTilesLimits(data, DefaultLimits())
}

// DecodeTilesLimits is DecodeTiles with caller-supplied header limits,
// enforced as each marker segment is parsed — a hostile SIZ or COD is
// rejected before the header tables it implies are allocated. It is the
// strict policy over DecodeTilesSalvage: any framing damage the
// salvaging parse records (an unknown marker segment, a repeated or
// truncated tile-part, a missing EOC) and any tile that never arrived
// rejects the stream. Tile-parts may arrive in any tile order.
func DecodeTilesLimits(data []byte, lim Limits) (*Header, [][]byte, error) {
	h, bodies, info, err := DecodeTilesSalvage(data, lim)
	if err != nil {
		return nil, nil, err
	}
	if info.Err != nil {
		return nil, nil, info.Err
	}
	for i, b := range bodies {
		if b == nil {
			return nil, nil, fmt.Errorf("codestream: tile-part %d missing", i)
		}
	}
	return h, bodies, nil
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
