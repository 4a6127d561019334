package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"j2kcell/internal/imgmodel"
	"j2kcell/internal/workload"
)

// resilientConfigs spans the coder × path × tiling matrix the
// corruption campaign and identity pins run over.
var resilientConfigs = []struct {
	name string
	opt  Options
}{
	{"mq-lossless", Options{Lossless: true, Resilience: true}},
	{"mq-lossy", Options{Rate: 0.2, Resilience: true}},
	{"mq-lossless-tiled", Options{Lossless: true, Resilience: true, TileW: 64, TileH: 64}},
	{"mq-lossy-tiled", Options{Rate: 0.25, Resilience: true, TileW: 64, TileH: 64}},
	{"ht-lossless", Options{Lossless: true, HT: true, Resilience: true}},
	{"ht-lossy", Options{Rate: 0.2, HT: true, Resilience: true}},
}

// decodeResilient is DecodeResilient under a background context: stream
// damage must land in the report, so any error fails the test.
func decodeResilient(t testing.TB, data []byte, dopt DecodeOptions) (*imgmodel.Image, *DamageReport) {
	t.Helper()
	img, rep, err := DecodeResilient(context.Background(), data, dopt)
	if err != nil {
		t.Fatalf("DecodeResilient: %v", err)
	}
	return img, rep
}

// TestFindSOPValidatesSequence pins the resync hardening: a fake
// FF 91 00 04 prefix inside packet-body data whose sequence field is
// outside the expected window must not capture the scan.
func TestFindSOPValidatesSequence(t *testing.T) {
	fake := []byte{0xAA, 0xFF, 0x91, 0x00, 0x04, 0x80, 0x00, 0xBB} // Nsop = 0x8000
	real := []byte{0xFF, 0x91, 0x00, 0x04, 0x00, 0x05, 0xCC}       // Nsop = 5
	body := append(append([]byte(nil), fake...), real...)

	at, idx := findSOP(body, 0, 3)
	if at != len(fake) || idx != 5 {
		t.Fatalf("findSOP locked onto the wrong marker: at=%d idx=%d, want at=%d idx=5", at, idx, len(fake))
	}
	// The fake marker IS acceptable when its sequence is the expected one.
	if at, idx = findSOP(body, 0, 0x7FF0); at != 1 || idx != 0x8000 {
		t.Fatalf("in-window marker rejected: at=%d idx=%d", at, idx)
	}
	// Wrap-around: expect near 2^16, marker sequence just past zero.
	wrap := []byte{0xFF, 0x91, 0x00, 0x04, 0x00, 0x02}
	if at, idx = findSOP(wrap, 0, 0xFFFE); at != 0 || idx != 0xFFFE+4 {
		t.Fatalf("mod-2^16 window broken: at=%d idx=%d", at, idx)
	}
	if at, _ = findSOP(fake, 0, 0); at != -1 {
		t.Fatalf("out-of-window fake accepted at %d", at)
	}
}

// TestResilientUndamagedIdentity pins that best-effort decoding of an
// intact stream is free: pixel-identical to Decode, a Complete report,
// and a 100%% salvage ratio — across both coders, both paths, and
// tiling.
func TestResilientUndamagedIdentity(t *testing.T) {
	src := workload.Dial(128, 128, 7, 5)
	for _, tc := range resilientConfigs {
		res, err := Encode(context.Background(), src, tc.opt, 1)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
		if err != nil {
			t.Fatalf("%s: plain decode of resilient stream: %v", tc.name, err)
		}
		img, rep := decodeResilient(t, res.Data, DecodeOptions{})
		if !rep.Complete || rep.Damaged() {
			t.Fatalf("%s: undamaged stream reported damage: %v", tc.name, rep)
		}
		if rep.SalvagedRatio() != 1.0 {
			t.Fatalf("%s: salvaged ratio %v on intact stream (salvaged=%d total=%d)",
				tc.name, rep.SalvagedRatio(), rep.SalvagedBytes, rep.TotalBytes)
		}
		if !imagesEqual(img, ref) {
			t.Fatalf("%s: best-effort decode differs from plain decode on intact stream", tc.name)
		}
	}
}

// bodyStart returns the offset just past the first SOD marker — the
// first byte of tile-part packet data.
func bodyStart(tb testing.TB, data []byte) int {
	at := bytes.Index(data, []byte{0xFF, 0x93})
	if at < 0 {
		tb.Fatal("no SOD marker in stream")
	}
	return at + 2
}

// TestResilientBlockLocality is the pinned locality guarantee: a
// corruption confined to one code block's coded segment loses only that
// block's reported region — every pixel outside it stays identical to
// the undamaged decode.
func TestResilientBlockLocality(t *testing.T) {
	src := workload.Dial(128, 128, 11, 5)
	// 16×16 code blocks keep one block's synthesis support well inside
	// the image, so containment is observable.
	res, err := Encode(context.Background(), src, Options{Lossless: true, Resilience: true, CBW: 16, CBH: 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	start := bodyStart(t, res.Data)
	rng := workload.NewRNG(42)
	checked := 0
	for trial := 0; trial < 300 && checked < 5; trial++ {
		data := append([]byte(nil), res.Data...)
		pos := start + rng.Intn(len(data)-start-2)
		data[pos] ^= byte(1) << uint(rng.Intn(8))
		img, rep := decodeResilient(t, data, DecodeOptions{})
		// Only the sharp case pins locality: exactly one block detected
		// bad, nothing else disturbed. (Flips landing in packet headers
		// or decoding without tripping detection take other paths.)
		if rep.LostBlocks != 1 || rep.LostPackets != 0 || rep.Resyncs != 0 ||
			rep.Truncated || len(rep.Notes) != 0 || len(rep.Tiles) != 1 {
			continue
		}
		reg := rep.Tiles[0].Region
		if reg.W <= 0 || reg.H <= 0 {
			t.Fatalf("trial %d: empty lost region %+v with a recorded loss", trial, reg)
		}
		if reg.W >= src.W && reg.H >= src.H {
			// A coarse-band block's support legitimately spans the whole
			// image; only fine-band losses demonstrate containment.
			continue
		}
		for c := range ref.Comps {
			for y := 0; y < ref.H; y++ {
				rrow, drow := ref.Comps[c].Row(y), img.Comps[c].Row(y)
				for x := 0; x < ref.W; x++ {
					if rrow[x] != drow[x] &&
						(x < reg.X0 || x >= reg.X0+reg.W || y < reg.Y0 || y >= reg.Y0+reg.H) {
						t.Fatalf("trial %d: pixel (%d,%d,c%d) damaged outside reported region %+v",
							trial, x, y, c, reg)
					}
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no trial produced a single contained block loss — detection tools not working")
	}
}

// TestResilientTruncationAtPacketBoundaries pins the salvage guarantee:
// a stream cut at any packet boundary still recovers every fully
// received packet, with no block-level loss inside them and byte-exact
// salvage accounting.
func TestResilientTruncationAtPacketBoundaries(t *testing.T) {
	src := workload.Dial(96, 96, 3, 5)
	res, err := Encode(context.Background(), src, Options{Lossless: true, Resilience: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := bodyStart(t, res.Data)
	// Packet boundaries are exactly the (validated) SOP positions.
	var bounds []int
	off, pi := start, 0
	for {
		at, idx := findSOP(res.Data[start:], off-start, pi)
		if at < 0 {
			break
		}
		bounds = append(bounds, start+at)
		off = start + at + 6
		pi = idx + 1
	}
	total := len(bounds)
	if total < 4 {
		t.Fatalf("only %d packets found", total)
	}
	for k := 0; k <= total; k++ {
		cut := len(res.Data) - 2 // before EOC
		if k < total {
			cut = bounds[k]
		}
		img, rep := decodeResilient(t, res.Data[:cut], DecodeOptions{})
		if img == nil {
			t.Fatalf("k=%d: nil image", k)
		}
		if got := rep.TotalPackets - rep.LostPackets; got != k {
			t.Fatalf("k=%d: recovered %d packets, want every fully-received one (%d)", k, got, k)
		}
		if rep.LostBlocks != 0 {
			t.Fatalf("k=%d: %d block losses inside fully-received packets", k, rep.LostBlocks)
		}
		if !rep.Truncated {
			t.Fatalf("k=%d: truncation not reported", k)
		}
		wantSalvaged := int64(cut - start)
		if rep.SalvagedBytes != wantSalvaged {
			t.Fatalf("k=%d: salvaged %d bytes, want %d", k, rep.SalvagedBytes, wantSalvaged)
		}
	}
}

// corruptTrial returns the damaged copy of data for one campaign trial:
// a single-bit flip in the tile-part payload, which starts at start,
// for two trials out of three (flip is true), else a truncation inside
// the payload.
func corruptTrial(rng *workload.RNG, data []byte, start, trial int) (damaged []byte, flip bool) {
	damaged = append([]byte(nil), data...)
	if trial%3 == 2 {
		return damaged[:start+rng.Intn(len(damaged)-start)], false
	}
	pos := start + rng.Intn(len(damaged)-start)
	damaged[pos] ^= byte(1) << uint(rng.Intn(8))
	return damaged, true
}

// TestResilientCorruptionCampaign is the seeded campaign: bit flips and
// truncations across both coders, both paths, and tiling. Requirements:
// zero panics (any escape fails the test), internally consistent damage
// reports, and ≥90%% aggregate block recovery for single-bit flips in
// the coded payload.
func TestResilientCorruptionCampaign(t *testing.T) {
	src := workload.Dial(128, 128, 13, 5)
	const trials = 60
	for _, tc := range resilientConfigs {
		res, err := Encode(context.Background(), src, tc.opt, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, baseRep := decodeResilient(t, res.Data, DecodeOptions{})
		if !baseRep.Complete {
			t.Fatalf("%s: baseline not complete: %v", tc.name, baseRep)
		}
		baseBlocks := baseRep.TotalBlocks
		start := bodyStart(t, res.Data)
		rng := workload.NewRNG(1000 + uint32(len(tc.name)))
		var flipTrials, recovered, lostTotal int
		for trial := 0; trial < trials; trial++ {
			data, flip := corruptTrial(rng, res.Data, start, trial)
			var img *imgmodel.Image
			var rep *DamageReport
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s trial %d: best-effort decode panicked: %v", tc.name, trial, r)
					}
				}()
				img, rep = decodeResilient(t, data, DecodeOptions{Workers: 1 + trial%4})
			}()
			if img == nil || rep == nil {
				t.Fatalf("%s trial %d: DecodeResilient not total", tc.name, trial)
			}
			// Report consistency.
			if rep.LostPackets > rep.TotalPackets {
				t.Fatalf("%s trial %d: lost %d of %d packets", tc.name, trial, rep.LostPackets, rep.TotalPackets)
			}
			if rep.LostBlocks > rep.TotalBlocks {
				t.Fatalf("%s trial %d: lost %d of %d blocks", tc.name, trial, rep.LostBlocks, rep.TotalBlocks)
			}
			if rep.SalvagedBytes > rep.TotalBytes {
				t.Fatalf("%s trial %d: salvaged %d > total %d", tc.name, trial, rep.SalvagedBytes, rep.TotalBytes)
			}
			var tileLost int
			for _, td := range rep.Tiles {
				if td.Index < 0 || td.Index >= rep.TotalTiles {
					t.Fatalf("%s trial %d: tile index %d out of range", tc.name, trial, td.Index)
				}
				tileLost += len(td.LostBlocks)
			}
			if tileLost > rep.LostBlocks {
				t.Fatalf("%s trial %d: tile maps list %d losses, report totals %d", tc.name, trial, tileLost, rep.LostBlocks)
			}
			if flip && rep.HeaderOK {
				flipTrials++
				recovered += rep.TotalBlocks - rep.LostBlocks
				lostTotal += baseBlocks - (rep.TotalBlocks - rep.LostBlocks)
			}
		}
		if flipTrials > 0 {
			frac := float64(recovered) / float64(flipTrials*baseBlocks)
			if frac < 0.90 {
				t.Errorf("%s: single-bit-flip block recovery %.1f%% < 90%% (%d lost across %d trials)",
					tc.name, frac*100, lostTotal, flipTrials)
			}
		}
	}
}

// TestResilientHeaderDamageIsTotal pins the floor of the salvage
// ladder: damage that destroys the main header still returns a
// placeholder image and a report, not an error.
func TestResilientHeaderDamageIsTotal(t *testing.T) {
	img, rep := decodeResilient(t, []byte{0xFF, 0x4F, 0x00, 0x01}, DecodeOptions{})
	if img == nil || rep == nil {
		t.Fatal("not total on garbage")
	}
	if rep.HeaderOK {
		t.Fatal("HeaderOK on garbage")
	}
	if rep.Complete {
		t.Fatal("Complete on garbage")
	}
	img, rep = decodeResilient(t, nil, DecodeOptions{})
	if img == nil || rep == nil || rep.HeaderOK {
		t.Fatal("not total on empty input")
	}
}

// TestResilientMissingTilePart deletes one whole tile-part from a tiled
// stream: the other tiles must decode pixel-identical and the report
// must map the missing tile.
func TestResilientMissingTilePart(t *testing.T) {
	src := workload.Dial(128, 128, 5, 5)
	res, err := Encode(context.Background(), src, Options{Lossless: true, Resilience: true, TileW: 64, TileH: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(context.Background(), res.Data, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tile-parts are SOT..(next SOT | EOC). Remove the second one.
	var sots []int
	for i := 0; i+1 < len(res.Data); i++ {
		if res.Data[i] == 0xFF && res.Data[i+1] == 0x90 {
			sots = append(sots, i)
		}
	}
	if len(sots) != 4 {
		t.Fatalf("expected 4 tile-parts, found %d", len(sots))
	}
	data := append([]byte(nil), res.Data[:sots[1]]...)
	data = append(data, res.Data[sots[2]:]...)
	img, rep := decodeResilient(t, data, DecodeOptions{})
	if rep.MissingTiles != 1 {
		t.Fatalf("MissingTiles = %d, want 1: %v", rep.MissingTiles, rep)
	}
	if len(rep.Tiles) != 1 || !rep.Tiles[0].Missing || rep.Tiles[0].Index != 1 {
		t.Fatalf("missing tile not mapped: %+v", rep.Tiles)
	}
	reg := rep.Tiles[0].Region
	if reg != (Rect{X0: 64, Y0: 0, W: 64, H: 64}) {
		t.Fatalf("missing tile region %+v, want the tile rectangle", reg)
	}
	for c := range ref.Comps {
		for y := 0; y < ref.H; y++ {
			rrow, drow := ref.Comps[c].Row(y), img.Comps[c].Row(y)
			for x := 0; x < ref.W; x++ {
				in := x >= reg.X0 && x < reg.X0+reg.W && y >= reg.Y0 && y < reg.Y0+reg.H
				if !in && rrow[x] != drow[x] {
					t.Fatalf("pixel (%d,%d,c%d) damaged outside the missing tile", x, y, c)
				}
			}
		}
	}
}

// TestStrictDecodeIffComplete pins strict decode as the best-effort
// decode that demands a complete report: over the corruption
// campaign's trials — MQ and HT, with and without the resilience
// tools, untiled and tiled, one and two workers — Decode succeeds
// exactly when DecodeResilient reports Complete, and then returns the
// same pixels. A failure is a *FormatError, the same one for every
// worker count. InspectLimits, which runs the same parse without
// Tier-1, fails with the identical error when the cause is header,
// framing, missing-tile or packet damage, and succeeds when the stream
// is intact or lost only code blocks.
func TestStrictDecodeIffComplete(t *testing.T) {
	src := workload.Dial(128, 128, 13, 5)
	const trials = 24
	for _, ht := range []bool{false, true} {
		for _, resilience := range []bool{false, true} {
			for _, tiled := range []bool{false, true} {
				opt := Options{Rate: 0.2, HT: ht, Resilience: resilience}
				if tiled {
					opt.TileW, opt.TileH = 64, 64
				}
				name := fmt.Sprintf("ht=%v/resilience=%v/tiled=%v", ht, resilience, tiled)
				res, err := Encode(context.Background(), src, opt, 1)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				start := bodyStart(t, res.Data)
				rng := workload.NewRNG(2000 + uint32(len(name)))
				complete, failed := 0, 0
				for trial := -1; trial < trials; trial++ {
					data := res.Data // trial -1 is the intact stream
					if trial >= 0 {
						data, _ = corruptTrial(rng, res.Data, start, trial)
					}
					var firstErr error
					var firstRep *DamageReport
					for _, workers := range []int{1, 2} {
						at := fmt.Sprintf("%s trial %d workers %d", name, trial, workers)
						dopt := DecodeOptions{Workers: workers}
						strict, err := Decode(context.Background(), data, dopt)
						img, rep := decodeResilient(t, data, dopt)
						if workers == 1 {
							firstRep = rep
						}
						if (err == nil) != rep.Complete {
							t.Fatalf("%s: strict err %v, but report Complete=%v: %v", at, err, rep.Complete, rep)
						}
						if err == nil {
							complete++
							if !imagesEqual(strict, img) {
								t.Fatalf("%s: strict and best-effort pixels differ on a complete stream", at)
							}
							continue
						}
						failed++
						var fe *FormatError
						if !errors.As(err, &fe) {
							t.Fatalf("%s: got %v (%T), want *FormatError", at, err, err)
						}
						if workers == 1 {
							firstErr = err
						} else if err.Error() != firstErr.Error() {
							t.Fatalf("%s: cause %q, but %q with one worker", at, err, firstErr)
						}
					}
					// The cause is a lost code block when nothing outside
					// the tiles was damaged and the first damaged tile
					// lost no packets.
					at := fmt.Sprintf("%s trial %d inspect", name, trial)
					rep := firstRep
					tier1 := firstErr != nil && len(rep.Notes) == 0 && !rep.Tiles[0].Missing && rep.Tiles[0].LostPackets == 0
					_, ierr := InspectLimits(data, DefaultLimits())
					var fe *FormatError
					switch {
					case !tier1:
						if (ierr == nil) != (firstErr == nil) || ierr != nil && ierr.Error() != firstErr.Error() {
							t.Fatalf("%s: got %v, want strict decode's %v", at, ierr, firstErr)
						}
					case rep.LostPackets == 0 && rep.MissingTiles == 0:
						if ierr != nil {
							t.Fatalf("%s: %v, but only code blocks were lost (%v)", at, ierr, firstErr)
						}
					case !errors.As(ierr, &fe):
						// A later tile lost packets as well.
						t.Fatalf("%s: got %v, want a *FormatError for %v", at, ierr, rep)
					}
				}
				if complete == 0 || failed == 0 {
					t.Fatalf("%s: %d complete and %d failed decodes: want both", name, complete, failed)
				}
			}
		}
	}
}

// TestResilientRegion pins that the best-effort decode honours Region.
// On an intact stream a windowed DecodeResilient is Complete and
// pixel-identical to the strict windowed decode. With one code block
// inside the window corrupted, the report names that block with a
// region meeting the window, and every window pixel outside the
// reported region matches the intact decode — the shape of
// TestResilientBlockLocality, for MQ and HT, untiled and tiled.
func TestResilientRegion(t *testing.T) {
	src := workload.Dial(128, 128, 11, 5)
	win := Rect{X0: 40, Y0: 24, W: 56, H: 64}
	for _, ht := range []bool{false, true} {
		for _, tiled := range []bool{false, true} {
			opt := Options{Lossless: true, HT: ht, Resilience: true, CBW: 16, CBH: 16}
			if tiled {
				opt.TileW, opt.TileH = 64, 64
			}
			name := fmt.Sprintf("ht=%v/tiled=%v", ht, tiled)
			res, err := Encode(context.Background(), src, opt, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dopt := DecodeOptions{Region: win}
			ref, err := Decode(context.Background(), res.Data, dopt)
			if err != nil {
				t.Fatalf("%s: strict region decode: %v", name, err)
			}
			img, rep := decodeResilient(t, res.Data, dopt)
			if !rep.Complete {
				t.Fatalf("%s: intact stream reported damage: %v", name, rep)
			}
			if !imagesEqual(img, ref) {
				t.Fatalf("%s: best-effort region decode differs from strict", name)
			}

			start := bodyStart(t, res.Data)
			rng := workload.NewRNG(77 + uint32(len(name)))
			checked := 0
			for trial := 0; trial < 600 && checked < 3; trial++ {
				data := append([]byte(nil), res.Data...)
				data[start+rng.Intn(len(data)-start)] ^= byte(1) << uint(rng.Intn(8))
				img, rep := decodeResilient(t, data, dopt)
				if rep.LostBlocks != 1 || rep.LostPackets != 0 || rep.Resyncs != 0 ||
					rep.Truncated || len(rep.Notes) != 0 || len(rep.Tiles) != 1 {
					continue
				}
				lost := rep.Tiles[0].LostBlocks[0].Region
				if !rectsIntersect(lost, win) {
					t.Fatalf("%s trial %d: lost block region %+v misses the window %+v", name, trial, lost, win)
				}
				reg := rep.Tiles[0].Region
				for c := range ref.Comps {
					for y := 0; y < ref.H; y++ {
						rrow, drow := ref.Comps[c].Row(y), img.Comps[c].Row(y)
						for x := 0; x < ref.W; x++ {
							ix, iy := win.X0+x, win.Y0+y // image coordinates
							if rrow[x] != drow[x] &&
								(ix < reg.X0 || ix >= reg.X0+reg.W || iy < reg.Y0 || iy >= reg.Y0+reg.H) {
								t.Fatalf("%s trial %d: pixel (%d,%d,c%d) damaged outside reported region %+v",
									name, trial, ix, iy, c, reg)
							}
						}
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatalf("%s: no trial produced a single contained block loss", name)
			}
		}
	}
}
