package codestream

import (
	"strings"
	"testing"
)

func sampleHeader() *Header {
	return &Header{
		W: 640, H: 480, NComp: 3, Depth: 8,
		Levels: 5, CBW: 64, CBH: 64,
		Lossless: false, UseMCT: true, TermAll: true, BaseDelta: 0.5,
		Mb: func() [][]int {
			mb := make([][]int, 3)
			for c := range mb {
				mb[c] = make([]int, 16)
				for b := range mb[c] {
					mb[c][b] = b%13 + 1
				}
			}
			return mb
		}(),
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	body := []byte{1, 2, 3, 4, 5, 6, 7}
	data := Encode(h, body)
	got, gotBodies, err := DecodeTiles(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != h.W || got.H != h.H || got.NComp != h.NComp || got.Depth != h.Depth {
		t.Fatalf("geometry: %+v", got)
	}
	if got.Levels != h.Levels || got.CBW != h.CBW || got.CBH != h.CBH {
		t.Fatalf("coding params: %+v", got)
	}
	if got.Lossless != h.Lossless || got.UseMCT != h.UseMCT || got.TermAll != h.TermAll {
		t.Fatalf("flags: %+v", got)
	}
	if got.BaseDelta != h.BaseDelta {
		t.Fatalf("delta %v", got.BaseDelta)
	}
	for c := range h.Mb {
		for b := range h.Mb[c] {
			if got.Mb[c][b] != h.Mb[c][b] {
				t.Fatalf("Mb[%d][%d]=%d want %d", c, b, got.Mb[c][b], h.Mb[c][b])
			}
		}
	}
	if string(gotBodies[0]) != string(body) {
		t.Fatal("body mismatch")
	}
}

func TestLosslessFlagRoundTrip(t *testing.T) {
	h := sampleHeader()
	h.Lossless, h.TermAll = true, false
	got, _, err := DecodeTiles(Encode(h, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Lossless || got.TermAll {
		t.Fatalf("flags: %+v", got)
	}
}

func TestStartsWithSOCEndsWithEOC(t *testing.T) {
	data := Encode(sampleHeader(), []byte{9})
	if data[0] != 0xFF || data[1] != 0x4F {
		t.Fatal("missing SOC")
	}
	if data[len(data)-2] != 0xFF || data[len(data)-1] != 0xD9 {
		t.Fatal("missing EOC")
	}
}

func TestDecodeErrors(t *testing.T) {
	h := sampleHeader()
	good := Encode(h, []byte{1, 2, 3})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte{0, 1, 2, 3}},
		{"truncated mid-header", good[:10]},
		{"truncated body", good[:len(good)-6]},
		{"missing EOC", good[:len(good)-2]},
	}
	for _, c := range cases {
		if _, _, err := DecodeTiles(c.data); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDecodeRejectsUnknownMarker(t *testing.T) {
	good := Encode(sampleHeader(), []byte{1})
	bad := append([]byte(nil), good...)
	bad[2], bad[3] = 0xFF, 0x99 // overwrite SIZ marker
	_, _, err := DecodeTiles(bad)
	if err == nil || !strings.Contains(err.Error(), "unexpected marker") {
		t.Fatalf("err=%v", err)
	}
}

func TestEmptyBody(t *testing.T) {
	h := sampleHeader()
	got, bodies, err := DecodeTiles(Encode(h, nil))
	if err != nil || len(bodies[0]) != 0 || got == nil {
		t.Fatalf("empty body: %v", err)
	}
}

func TestMultiTileRoundTrip(t *testing.T) {
	h := sampleHeader()
	h.TileW, h.TileH = 320, 240
	bodies := [][]byte{{1, 2, 3}, {4, 5}, {6}, {}}
	data := EncodeTiles(h, bodies)
	got, gotBodies, err := DecodeTiles(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TileW != 320 || got.TileH != 240 {
		t.Fatalf("tile dims %dx%d", got.TileW, got.TileH)
	}
	if len(gotBodies) != 4 {
		t.Fatalf("%d tile bodies", len(gotBodies))
	}
	for i := range bodies {
		if string(gotBodies[i]) != string(bodies[i]) {
			t.Fatalf("tile %d body mismatch", i)
		}
	}
}

func TestRejectsBadCodingParams(t *testing.T) {
	good := Encode(sampleHeader(), []byte{1})
	// COD payload starts after SOC(2) + SIZ seg; find COD by marker scan.
	mutate := func(find func(data []byte) int, v byte) []byte {
		d := append([]byte(nil), good...)
		if i := find(d); i >= 0 {
			d[i] = v
		}
		return d
	}
	codOff := func(d []byte) int {
		for i := 0; i+1 < len(d); i++ {
			if d[i] == 0xFF && d[i+1] == 0x52 {
				return i + 4 // marker + length
			}
		}
		return -1
	}
	// Progression byte out of range.
	if _, _, err := DecodeTiles(mutate(func(d []byte) int { return codOff(d) + 1 }, 9)); err == nil {
		t.Error("bad progression accepted")
	}
	// Levels out of range.
	if _, _, err := DecodeTiles(mutate(func(d []byte) int { return codOff(d) + 5 }, 77)); err == nil {
		t.Error("bad level count accepted")
	}
	// Code block exponent out of range.
	if _, _, err := DecodeTiles(mutate(func(d []byte) int { return codOff(d) + 6 }, 30)); err == nil {
		t.Error("bad cb exponent accepted")
	}
}

func TestRejectsTilePartsOutOfOrder(t *testing.T) {
	h := sampleHeader()
	h.TileW, h.TileH = 320, 480
	data := EncodeTiles(h, [][]byte{{1}, {2}})
	// Flip the second SOT's Isot to 0.
	count := 0
	for i := 0; i+1 < len(data); i++ {
		if data[i] == 0xFF && data[i+1] == 0x90 {
			count++
			if count == 2 {
				data[i+5] = 0 // Isot low byte
				break
			}
		}
	}
	if _, _, err := DecodeTiles(data); err == nil {
		t.Fatal("out-of-order tile parts accepted")
	}
}

func TestRejectsQCDBeforeSIZ(t *testing.T) {
	// Hand-build SOC then QCD.
	data := []byte{0xFF, 0x4F, 0xFF, 0x5C, 0x00, 0x03, 0x20}
	if _, _, err := DecodeTiles(data); err == nil {
		t.Fatal("QCD before SIZ accepted")
	}
}

// TestSalvageFramingAudit pins which framing the salvaging parser
// takes as intact and which it records as damage in SalvageInfo.Err.
// Tile-parts in any tile order are intact, since bodies are indexed by
// Isot. A skipped unknown marker segment (in the main header or
// between tile-parts), a repeated or truncated tile-part and a missing
// EOC are damage. The strict parse fails exactly on the damaged ones.
func TestSalvageFramingAudit(t *testing.T) {
	h := sampleHeader()
	h.TileW, h.TileH = 320, 480
	good := EncodeTiles(h, [][]byte{{1, 2}, {3}})
	var sots []int
	for i := 0; i+1 < len(good); i++ {
		if good[i] == 0xFF && good[i+1] == 0x90 {
			sots = append(sots, i)
		}
	}
	eoc := len(good) - 2
	com := []byte{0xFF, 0x64, 0x00, 0x04, 'h', 'i'} // a well-formed COM segment
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		data    []byte
		damaged bool
	}{
		{"intact", good, false},
		{"tile-parts swapped", cat(good[:sots[0]], good[sots[1]:eoc], good[sots[0]:sots[1]], good[eoc:]), false},
		{"unknown segment in main header", cat(good[:2], com, good[2:]), true},
		{"unknown segment between tile-parts", cat(good[:sots[1]], com, good[sots[1]:]), true},
		{"repeated tile-part", cat(good[:eoc], good[sots[1]:eoc], good[eoc:]), true},
		{"truncated tile-part", good[:eoc-1], true},
		{"missing EOC", good[:eoc], true},
	} {
		_, bodies, info, err := DecodeTilesSalvage(c.data, DefaultLimits())
		if err != nil {
			t.Fatalf("%s: main header rejected: %v", c.name, err)
		}
		if (info.Err != nil) != c.damaged {
			t.Errorf("%s: framing damage %v, want damaged=%v", c.name, info.Err, c.damaged)
		}
		if !c.damaged && (string(bodies[0]) != "\x01\x02" || string(bodies[1]) != "\x03") {
			t.Errorf("%s: bodies %q", c.name, bodies)
		}
		if _, _, err := DecodeTiles(c.data); (err != nil) != c.damaged {
			t.Errorf("%s: strict parse err %v", c.name, err)
		}
	}
}
