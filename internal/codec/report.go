package codec

import (
	"fmt"
	"strings"
)

// DamageReport is the structured outcome of a best-effort decode: what
// was lost, where, and how much of the stream survived. It is returned
// alongside the image instead of an error — a service handling
// untrusted streams reads it to decide whether "99% of the image" is
// good enough to serve.
type DamageReport struct {
	// HeaderOK reports that the main header (SOC/SIZ/COD/QCD) parsed;
	// without it there is no geometry and the image is a placeholder.
	HeaderOK bool
	// Complete reports that no damage of any kind was recorded — not
	// in the framing, the options, a packet or a block. It holds
	// exactly when a strict Decode of the same stream and options
	// succeeds, and the output is then pixel-identical to it.
	Complete bool
	// Truncated reports that the stream ended before its framing did
	// (mid tile-part, mid packet walk, or missing EOC).
	Truncated bool

	TotalTiles   int // tiles in the grid the main header declares
	MissingTiles int // tiles whose tile-part never arrived (concealed whole)

	TotalPackets int // packets the progression order expects, all tiles
	LostPackets  int // packets skipped, unparsable, or never received

	TotalBlocks int // code blocks with Tier-1 contributions, all tiles
	LostBlocks  int // code blocks concealed as zero coefficients

	// Resyncs counts recovery jumps: SOP scans inside tile bodies plus
	// SOT scans across damaged tile-part framing.
	Resyncs int

	// SalvagedBytes / TotalBytes measure how much of the tile-part
	// payload that arrived was actually parsed into the image (marker
	// and main-header bytes are excluded from both).
	SalvagedBytes int64
	TotalBytes    int64

	// Tiles holds one entry per damaged tile (undamaged tiles are
	// omitted), in tile-index order.
	Tiles []TileDamage

	// Notes carries non-localized observations: ignored options,
	// header-level failures, contained faults outside Tier-1.
	Notes []string
}

// TileDamage is one tile's loss map.
type TileDamage struct {
	Index     int
	Missing   bool // tile-part never arrived; whole tile concealed
	Truncated bool // packet walk ended before the progression did

	TotalPackets int
	LostPackets  int
	TotalBlocks  int
	Resyncs      int

	// LostBlocks lists every concealed code block with its worst-case
	// affected region in absolute image coordinates.
	LostBlocks []BlockLoss

	// Faults lists contained worker faults demoted to block loss.
	Faults []FaultRef

	// Region is the union of all lost regions (the whole tile when
	// Missing), in absolute image coordinates. Zero when undamaged.
	Region Rect
}

// BlockLoss identifies one concealed code block.
type BlockLoss struct {
	Tile   int
	Comp   int
	Band   int // band index in dwt.Layout order
	GX, GY int // block grid position within the band
	// Region is the worst-case image region the loss can affect: the
	// block's band rectangle widened by the synthesis support margin
	// and scaled through the inverse DWT, in absolute image
	// coordinates.
	Region Rect
	Cause  string
}

// FaultRef is the stage/lane/job coordinate of a contained fault that
// was demoted to localized damage instead of failing the decode.
type FaultRef struct {
	Stage string
	Lane  int
	Job   int
}

// Damaged reports whether anything at all was lost.
func (r *DamageReport) Damaged() bool { return !r.Complete }

// SalvagedRatio returns SalvagedBytes/TotalBytes (1.0 for an empty
// total, so an undamaged stream always reads 1.0).
func (r *DamageReport) SalvagedRatio() float64 {
	if r.TotalBytes == 0 {
		return 1.0
	}
	return float64(r.SalvagedBytes) / float64(r.TotalBytes)
}

// String renders a one-paragraph operator summary.
func (r *DamageReport) String() string {
	if r == nil {
		return "damage: <nil>"
	}
	if !r.HeaderOK {
		return "damage: main header unusable; no image recovered"
	}
	if r.Complete {
		return "damage: none (stream decoded completely)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "damage: %d/%d blocks lost, %d/%d packets lost, %d/%d tiles missing, %d resyncs, %.1f%% of payload salvaged",
		r.LostBlocks, r.TotalBlocks, r.LostPackets, r.TotalPackets,
		r.MissingTiles, r.TotalTiles, r.Resyncs, 100*r.SalvagedRatio())
	if r.Truncated {
		b.WriteString(", truncated")
	}
	for _, n := range r.Notes {
		b.WriteString("; ")
		b.WriteString(n)
	}
	return b.String()
}

// tileDamage collects one tile's damage while decodeTile runs. Tier-1
// workers write disjoint tasks, and the coordinator serializes
// concealment recording, so no lock is needed beyond the one
// decodeTile's conceal path holds.
type tileDamage struct {
	totalPackets int
	lostPackets  int
	resyncs      int
	totalBlocks  int
	salvaged     int64 // packet bytes successfully parsed (incl. SOP)
	truncated    bool  // packet walk ended early
	lost         []BlockLoss
	faults       []FaultRef
	// cause is the tile's first damage: its first bad packet in
	// progression order, else its first bad Tier-1 task in task order.
	// It is nil exactly when nothing above records damage.
	cause error
}

// fail records err as the tile's cause unless an earlier one is
// recorded (nil is ignored).
func (d *tileDamage) fail(err error) {
	if d.cause == nil {
		d.cause = err
	}
}

// lostRegion maps a lost code block in a band at the given DWT level to
// the worst-case tile-local region its absence can affect: the block's
// band rectangle widened by the synthesis support margin on each side,
// scaled up through the inverse levels, clamped to the tile.
func lostRegion(level, gx, gy, cbw, cbh, tw, th int) Rect {
	x0 := (gx*cbw - regionMargin) << uint(level)
	y0 := (gy*cbh - regionMargin) << uint(level)
	x1 := ((gx+1)*cbw + regionMargin) << uint(level)
	y1 := ((gy+1)*cbh + regionMargin) << uint(level)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > tw {
		x1 = tw
	}
	if y1 > th {
		y1 = th
	}
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	return Rect{X0: x0, Y0: y0, W: x1 - x0, H: y1 - y0}
}

// unionRect returns the smallest rectangle covering both (either may be
// empty, meaning "nothing yet").
func unionRect(a, b Rect) Rect {
	if a.W == 0 || a.H == 0 {
		return b
	}
	if b.W == 0 || b.H == 0 {
		return a
	}
	x0, y0 := min(a.X0, b.X0), min(a.Y0, b.Y0)
	x1 := max(a.X0+a.W, b.X0+b.W)
	y1 := max(a.Y0+a.H, b.Y0+b.H)
	return Rect{X0: x0, Y0: y0, W: x1 - x0, H: y1 - y0}
}
