package codec

import (
	"fmt"

	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
	"j2kcell/internal/jp2"
	"j2kcell/internal/t2"
)

// PacketInfo describes one packet's position and size in a codestream.
type PacketInfo struct {
	Layer, Res, Comp int
	Offset, Bytes    int // within the tile body
	DataBytes        int // MQ-coded block bytes (Bytes − DataBytes = packet header)
	Blocks           int // code blocks contributing
}

// BandStat aggregates one subband's share of the stream: MQ-coded
// bytes and contributing block count summed over every layer.
type BandStat struct {
	Comp   int
	Band   dwt.Band
	Bytes  int
	Blocks int
}

// MarkerInfo is one marker segment of the codestream framing.
type MarkerInfo struct {
	Name   string
	Offset int
	Len    int // marker + segment bytes (tile-part body excluded for SOT)
}

// StreamInfo is the parsed structure of a codestream, without any
// Tier-1 decoding.
type StreamInfo struct {
	Header  *codestream.Header
	Packets []PacketInfo
	Bands   []BandStat   // per component × subband, first tile
	Markers []MarkerInfo // framing segments, in stream order
}

// BytesAtResolution sums packet bytes for resolutions <= r: the stream
// prefix a resolution-progressive (RLCP) decoder would need.
func (s *StreamInfo) BytesAtResolution(r int) int {
	n := 0
	for _, p := range s.Packets {
		if p.Res <= r {
			n += p.Bytes
		}
	}
	return n
}

// BytesAtLayer sums packet bytes for layers < l.
func (s *StreamInfo) BytesAtLayer(l int) int {
	n := 0
	for _, p := range s.Packets {
		if p.Layer < l {
			n += p.Bytes
		}
	}
	return n
}

// HeaderOverhead sums the packet-header bytes across every packet —
// the Tier-2 signaling cost on top of the MQ-coded block data.
func (s *StreamInfo) HeaderOverhead() int {
	n := 0
	for _, p := range s.Packets {
		n += p.Bytes - p.DataBytes
	}
	return n
}

// markerNames maps the codes this codec emits to display names.
var markerNames = map[int]string{
	codestream.SOC: "SOC", codestream.SIZ: "SIZ", codestream.COD: "COD",
	codestream.QCD: "QCD", codestream.SOT: "SOT", codestream.SOP: "SOP",
	codestream.SOD: "SOD", codestream.EOC: "EOC",
}

// scanMarkers walks the framing of a raw codestream: the main-header
// marker segments, each tile-part's SOT/SOD wrapper (skipping the
// packet body via Psot), and the EOC trailer.
func scanMarkers(data []byte) ([]MarkerInfo, error) {
	var out []MarkerInfo
	pos := 0
	rd16 := func(at int) int { return int(data[at])<<8 | int(data[at+1]) }
	for pos+2 <= len(data) {
		m := rd16(pos)
		name, ok := markerNames[m]
		if !ok {
			return nil, fmt.Errorf("codec: unexpected marker %#x at %d", m, pos)
		}
		switch m {
		case codestream.SOC, codestream.SOD:
			out = append(out, MarkerInfo{Name: name, Offset: pos, Len: 2})
			pos += 2
		case codestream.EOC:
			out = append(out, MarkerInfo{Name: name, Offset: pos, Len: 2})
			return out, nil
		case codestream.SOT:
			if pos+12 > len(data) {
				return nil, fmt.Errorf("codec: truncated SOT at %d", pos)
			}
			seg := rd16(pos + 2)
			psot := int(uint32(rd16(pos+6))<<16 | uint32(rd16(pos+8)))
			out = append(out, MarkerInfo{Name: name, Offset: pos, Len: 2 + seg})
			// SOD + body are inside Psot; report SOD, then skip the body.
			sod := pos + 2 + seg
			if sod+2 > len(data) || rd16(sod) != codestream.SOD {
				return nil, fmt.Errorf("codec: missing SOD at %d", sod)
			}
			out = append(out, MarkerInfo{Name: "SOD", Offset: sod, Len: 2})
			pos += psot
			if psot <= 0 || pos > len(data) {
				return nil, fmt.Errorf("codec: bad Psot %d", psot)
			}
		default: // fixed-length marker segments: SIZ, COD, QCD
			if pos+4 > len(data) {
				return nil, fmt.Errorf("codec: truncated segment at %d", pos)
			}
			seg := rd16(pos + 2)
			out = append(out, MarkerInfo{Name: name, Offset: pos, Len: 2 + seg})
			pos += 2 + seg
		}
	}
	return nil, fmt.Errorf("codec: codestream ended without EOC")
}

// InspectLimits parses a codestream's headers and packet structure
// under the given header limits, without decoding any coefficient
// data. A malformed or limit-exceeding stream surfaces as
// *FormatError.
func InspectLimits(data []byte, lim Limits) (*StreamInfo, error) {
	if jp2.IsJP2(data) {
		_, cs, err := jp2.Unwrap(data)
		if err != nil {
			return nil, formatErr(err)
		}
		data = cs
	}
	h, bodies, err := codestream.DecodeTilesLimits(data, lim)
	if err != nil {
		return nil, formatErr(err)
	}
	body := bodies[0]
	bands := dwt.Layout(h.W, h.H, h.Levels)
	style := t2.SegSingle
	if h.TermAll || h.HT {
		style = t2.SegTermAll
	}
	type key struct{ c, b int }
	precincts := map[key]*t2.Precinct{}
	for c := 0; c < h.NComp; c++ {
		for bi, band := range bands {
			gw := (band.W + h.CBW - 1) / h.CBW
			gh := (band.H + h.CBH - 1) / h.CBH
			precincts[key{c, bi}] = t2.NewPrecinct(gw, gh)
		}
	}
	info := &StreamInfo{Header: h}
	if info.Markers, err = scanMarkers(data); err != nil {
		return nil, err
	}
	bandStats := make([]BandStat, h.NComp*len(bands))
	for c := 0; c < h.NComp; c++ {
		for bi, band := range bands {
			bandStats[c*len(bands)+bi] = BandStat{Comp: c, Band: band}
		}
	}
	off := 0
	order := PacketOrder(Progression(h.Progression), h.Layers, h.Levels, h.NComp)
	for pi, lrc := range order {
		l, r, c := lrc[0], lrc[1], lrc[2]
		resBands := ResBands(h.Levels, r)
		var pkt []*t2.Precinct
		for _, bi := range resBands {
			pkt = append(pkt, precincts[key{c, bi}])
		}
		if h.SOPMarkers {
			at, _ := findSOP(body, off, pi)
			if at < 0 {
				break
			}
			off = at + 6
		}
		n, err := t2.DecodePacketEPH(body[off:], pkt, l, style, h.SOPMarkers)
		if err != nil {
			return nil, fmt.Errorf("codec: inspect packet l=%d r=%d c=%d: %w", l, r, c, err)
		}
		nblocks, ndata := 0, 0
		for pi, p := range pkt {
			st := &bandStats[c*len(bands)+resBands[pi]]
			for _, b := range p.Blocks {
				if b != nil && b.NumPasses > 0 {
					nblocks++
					st.Blocks++
					st.Bytes += len(b.Data)
					ndata += len(b.Data)
				}
			}
		}
		info.Packets = append(info.Packets, PacketInfo{
			Layer: l, Res: r, Comp: c, Offset: off, Bytes: n,
			DataBytes: ndata, Blocks: nblocks,
		})
		off += n
	}
	info.Bands = bandStats
	return info, nil
}
