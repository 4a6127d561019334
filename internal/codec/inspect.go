package codec

import (
	"j2kcell/internal/codestream"
	"j2kcell/internal/dwt"
)

// PacketInfo describes one packet's position and size in a codestream.
type PacketInfo struct {
	Tile, Layer, Res, Comp int
	Offset                 int // within the tile body, at the packet's SOP marker if any
	Bytes                  int // packet header and block data, SOP marker excluded
	DataBytes              int // block bytes (Bytes − DataBytes = packet header)
	Blocks                 int // code blocks contributing
}

// BandStat aggregates one subband's share of the stream, summed over
// every tile and layer: block bytes and the code blocks that carry
// any. Band is the subband at image size.
type BandStat struct {
	Comp   int
	Band   dwt.Band
	Bytes  int
	Blocks int
}

// StreamInfo is the parsed structure of a codestream, without any
// Tier-1 decoding.
type StreamInfo struct {
	Header  *codestream.Header
	Packets []PacketInfo        // every tile's packets, in stream order
	Bands   []BandStat          // per component × subband
	Markers []codestream.Marker // framing segments, in stream order
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
// the Tier-2 signaling cost on top of the block data.
func (s *StreamInfo) HeaderOverhead() int {
	n := 0
	for _, p := range s.Packets {
		n += p.Bytes - p.DataBytes
	}
	return n
}

// InspectLimits parses a codestream's headers and the packets of every
// tile under the given header limits, without decoding any coefficient
// data: it runs the decoder's own parse — the salvaging tile-part
// parse, then each tile's packet walk at that tile's band geometry —
// and no Tier-1. Header, framing, missing tile-part or packet damage
// fails it with the *FormatError a strict Decode returns for the same
// cause; damage inside code-block data goes unseen.
func InspectLimits(data []byte, lim Limits) (*StreamInfo, error) {
	h, bodies, sinfo, err := parseStream(data, lim)
	if err != nil {
		return nil, err
	}
	if sinfo.Err != nil {
		return nil, formatErr(sinfo.Err)
	}
	info := &StreamInfo{Header: h, Markers: sinfo.Markers}
	bands := dwt.Layout(h.W, h.H, h.Levels)
	for c := 0; c < h.NComp; c++ {
		for _, band := range bands {
			info.Bands = append(info.Bands, BandStat{Comp: c, Band: band})
		}
	}
	p := NewPipeline(1)
	for i, r := range TileGrid(h.W, h.H, h.TileW, h.TileH) {
		if bodies[i] == nil {
			return nil, tileErr(i, errTileMissing)
		}
		var dmg tileDamage
		accs, packets, err := parseTile(p, h, dwt.Layout(r.W, r.H, h.Levels), bodies[i], h.Layers, h.Levels, Rect{}, &dmg)
		if err != nil {
			return nil, err
		}
		if dmg.cause != nil {
			return nil, tileErr(i, dmg.cause)
		}
		for _, pk := range packets {
			pk.Tile = i
			info.Packets = append(info.Packets, pk)
		}
		for k, acc := range accs {
			st := &info.Bands[k]
			for _, a := range acc {
				if a != nil {
					st.Blocks++
					st.Bytes += len(a.data)
				}
			}
		}
	}
	return info, nil
}
