package codestream

import "fmt"

// SalvageInfo records what the tolerant tile-part parser had to do to
// recover bodies from a damaged codestream.
type SalvageInfo struct {
	Tiles     int   // tiles in the grid the main header declares
	Resyncs   int   // SOT resyncs performed after framing damage
	Truncated bool  // the stream ended inside a tile-part or before EOC
	BodyBytes int64 // total salvaged packet-body bytes
	// Markers lists the framing the parser read, in stream order: the
	// main header's marker segments, the SOT and SOD of each tile-part
	// header read, and EOC.
	Markers []Marker
	// Err is the first framing problem in stream order — a resync
	// point, a truncation, a skipped marker segment, a repeated
	// tile-part — or nil when the framing is intact.
	Err error
}

// damage records err as the framing's first problem unless one is
// already recorded.
func (s *SalvageInfo) damage(err error) {
	if s.Err == nil {
		s.Err = err
	}
}

// GridTiles returns the tile count implied by the header's SIZ grid.
func GridTiles(h *Header) int {
	if h.TileW <= 0 || h.TileH <= 0 {
		return 1
	}
	return ((h.W + h.TileW - 1) / h.TileW) * ((h.H + h.TileH - 1) / h.TileH)
}

// DecodeTilesSalvage is the best-effort counterpart of
// DecodeTilesLimits. The main header (SOC/SIZ/COD/QCD) is parsed by
// the same loop — without it there is no geometry to decode into —
// except that well-formed marker segments it does not know are
// skipped. The tile-part framing is forgiving: unknown-but-well-formed
// marker segments are skipped, a damaged SOT/SOD wrapper triggers a
// forward scan for the next plausible SOT, truncated tile-parts are
// clamped to the bytes present, tile-parts may arrive in any tile
// order, a repeated tile-part is dropped, and a missing EOC ends the
// stream instead of failing it. Each of these except the tile order is
// damage, and info.Err holds the first. Bodies are returned indexed by
// Isot over the full SIZ tile grid; a nil body means that tile never
// arrived. The error is non-nil only when the main header itself is
// unusable.
func DecodeTilesSalvage(data []byte, lim Limits) (*Header, [][]byte, *SalvageInfo, error) {
	rd := &reader{data: data}
	info := &SalvageInfo{}
	// skip steps over a well-formed marker segment the decoder does
	// not use; the decode cannot vouch for it, so it is damage.
	skip := func(m int) error {
		if _, err := rd.segment(); err != nil {
			return err
		}
		info.damage(fmt.Errorf("codestream: unexpected marker %#x", m))
		return nil
	}
	h, err := mainHeader(rd, lim, skip)
	if err != nil {
		return nil, nil, nil, err
	}

	ntiles := GridTiles(h)
	info.Tiles = ntiles
	bodies := make([][]byte, ntiles)

	sawEOC := false
	for !sawEOC && rd.pos < len(data) {
		at := rd.pos
		m, err := rd.marker()
		switch {
		case err != nil:
		case m == EOC:
			sawEOC = true
			rd.mark("EOC", at)
		case m == SOT:
			var isot, bodyLen int
			if isot, bodyLen, err = rd.tilePart(); err != nil {
				break
			}
			if isot >= ntiles {
				err = fmt.Errorf("codestream: tile-part %d outside the %d-tile grid", isot, ntiles)
				break
			}
			if rd.pos+bodyLen > len(data) {
				bodyLen = len(data) - rd.pos
				info.Truncated = true
				info.damage(fmt.Errorf("codestream: tile-part %d truncated", isot))
			}
			if bodies[isot] == nil {
				bodies[isot] = data[rd.pos : rd.pos+bodyLen]
				info.BodyBytes += int64(bodyLen)
			} else {
				info.damage(fmt.Errorf("codestream: repeated tile-part for tile %d", isot))
			}
			rd.pos += bodyLen
		default:
			// A marker segment we don't know: skip it if well formed,
			// otherwise fall through to resync.
			err = skip(m)
		}
		if err != nil {
			// Resync: scan forward from just past the failure point for
			// the next plausible SOT (Lsot == 10 and an in-range Isot) or
			// the EOC trailer, whichever comes first.
			info.damage(err)
			next := findSOT(data, at+1, ntiles)
			if next < 0 {
				info.Truncated = true
				break
			}
			rd.pos = next
			info.Resyncs++
		}
	}
	if !sawEOC {
		info.Truncated = true
		info.damage(fmt.Errorf("codestream: no EOC"))
	}
	info.Markers = rd.marks
	return h, bodies, info, nil
}

// findSOT scans for the next byte position carrying a plausible SOT
// marker segment: FF 90, Lsot == 10, Isot inside the tile grid — or an
// EOC trailer at the very end of the stream. Validating the fixed Lsot
// and the Isot range keeps a stray FF 90 inside packet-body bytes from
// hijacking the resync (the two following length bytes would have to
// read 00 0A and the tile index would have to be in range as well).
func findSOT(data []byte, from int, ntiles int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i+2 <= len(data); i++ {
		if data[i] != 0xFF {
			continue
		}
		if data[i+1] == 0xD9 && i+2 == len(data) {
			return i // EOC trailer
		}
		if data[i+1] != 0x90 {
			continue
		}
		if i+6 > len(data) {
			continue
		}
		if data[i+2] != 0x00 || data[i+3] != 0x0A {
			continue
		}
		if isot := int(data[i+4])<<8 | int(data[i+5]); isot >= ntiles {
			continue
		}
		return i
	}
	return -1
}
