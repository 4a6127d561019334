package t2

import (
	"testing"
	"testing/quick"

	"j2kcell/internal/workload"
)

func TestBitIORoundTrip(t *testing.T) {
	f := func(bits []bool) bool {
		var w BitWriter
		for _, b := range bits {
			v := 0
			if b {
				v = 1
			}
			w.WriteBit(v)
		}
		w.Align()
		r := NewBitReader(w.Bytes())
		for _, b := range bits {
			got, err := r.ReadBit()
			if err != nil {
				return false
			}
			want := 0
			if b {
				want = 1
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBitIOStuffing(t *testing.T) {
	// Sixteen 1-bits force a 0xFF byte; the writer must stuff the next
	// byte's MSB and the reader must undo it.
	var w BitWriter
	for i := 0; i < 30; i++ {
		w.WriteBit(1)
	}
	w.Align()
	data := w.Bytes()
	for i := 0; i+1 < len(data); i++ {
		if data[i] == 0xFF && data[i+1] >= 0x90 {
			t.Fatalf("unstuffed marker in header: % X", data)
		}
	}
	r := NewBitReader(data)
	for i := 0; i < 30; i++ {
		b, err := r.ReadBit()
		if err != nil || b != 1 {
			t.Fatalf("bit %d: %d err %v", i, b, err)
		}
	}
}

func TestBitIOAlignAfterFF(t *testing.T) {
	var w BitWriter
	w.WriteBits(0xFF, 8) // exactly one 0xFF byte
	w.Align()            // must append the stuffed zero byte
	if len(w.Bytes()) != 2 || w.Bytes()[1] != 0 {
		t.Fatalf("align after FF: % X", w.Bytes())
	}
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatalf("read back %#x", v)
	}
	r.Align()
	if r.Pos() != 2 {
		t.Fatalf("reader pos %d after align, want 2", r.Pos())
	}
}

func TestBitWriterBitsValues(t *testing.T) {
	var w BitWriter
	w.WriteBits(0b1011, 4)
	w.WriteBits(0b0110, 4)
	w.Align()
	if w.Bytes()[0] != 0xB6 {
		t.Fatalf("got %#x, want 0xB6", w.Bytes()[0])
	}
}

func TestTagTreeRoundTrip(t *testing.T) {
	f := func(seed uint32, w8, h8 uint8) bool {
		rng := workload.NewRNG(seed)
		tw, th := int(w8)%7+1, int(h8)%7+1
		vals := make([]int32, tw*th)
		for i := range vals {
			vals[i] = int32(rng.Intn(12))
		}
		enc := NewTagTree(tw, th)
		enc.Reset(0)
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				enc.SetValue(x, y, vals[y*tw+x])
			}
		}
		enc.Finish()
		var bw BitWriter
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				enc.Encode(&bw, x, y, vals[y*tw+x]+1)
			}
		}
		bw.Align()
		dec := NewTagTree(tw, th)
		dec.Reset(tagUnknown)
		br := NewBitReader(bw.Bytes())
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				got, err := dec.DecodeValue(br, x, y)
				if err != nil || got != vals[y*tw+x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTagTreeSharedPrefixEfficiency(t *testing.T) {
	// All-equal values: the quad tree should code them in far fewer
	// bits than independent unary codes.
	const n = 8
	tt := NewTagTree(n, n)
	tt.Reset(0)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			tt.SetValue(x, y, 7)
		}
	}
	tt.Finish()
	var bw BitWriter
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			tt.Encode(&bw, x, y, 8)
		}
	}
	bw.Align()
	if got := len(bw.Bytes()); got > 20 {
		t.Fatalf("tag tree used %d bytes for 64 equal values", got)
	}
}

func TestNumPassesCode(t *testing.T) {
	for n := 1; n <= 164; n++ {
		var w BitWriter
		writeNumPasses(&w, n)
		w.Align()
		r := NewBitReader(w.Bytes())
		got, err := readNumPasses(r)
		if err != nil || got != n {
			t.Fatalf("numpasses %d decoded as %d (err %v)", n, got, err)
		}
	}
}

// TestBitLenFloorLog2 pins the segment-length helpers at the edges,
// including the 0 both return for v <= 0.
func TestBitLenFloorLog2(t *testing.T) {
	for _, c := range []struct{ v, bitLen, floorLog2 int }{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 0},
		{2, 2, 1},
		{3, 2, 1},
		{164, 8, 7},
		{1 << 20, 21, 20},
		{1<<31 - 1, 31, 30},
	} {
		if got := bitLen(c.v); got != c.bitLen {
			t.Errorf("bitLen(%d) = %d, want %d", c.v, got, c.bitLen)
		}
		if got := floorLog2(c.v); got != c.floorLog2 {
			t.Errorf("floorLog2(%d) = %d, want %d", c.v, got, c.floorLog2)
		}
	}
}

func TestNumPassesPanicsOver164(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 165 passes")
		}
	}()
	var w BitWriter
	writeNumPasses(&w, 165)
}

// buildPrecinct makes a random precinct with nblocks contributions.
func buildPrecinct(rng *workload.RNG, w, h int, style SegStyle) *Precinct {
	p := NewPrecinct(w, h)
	for i := range p.Blocks {
		if rng.Intn(4) == 0 {
			continue // not included
		}
		np := rng.Intn(20) + 1
		b := &BlockContrib{NumPasses: np, ZeroBP: rng.Intn(8)}
		total := 0
		if style == SegTermAll {
			for j := 0; j < np; j++ {
				l := rng.Intn(60) + 1
				b.Segments = append(b.Segments, Segment{Passes: 1, Len: l})
				total += l
			}
		} else {
			l := rng.Intn(900) + 1
			b.Segments = []Segment{{Passes: np, Len: l}}
			total = l
		}
		b.Data = make([]byte, total)
		for j := range b.Data {
			b.Data[j] = byte(rng.Intn(256))
		}
		p.Blocks[i] = b
		p.FirstIncl[i] = 0
		p.ZeroBPs[i] = int32(b.ZeroBP)
	}
	return p
}

func TestPacketRoundTrip(t *testing.T) {
	for _, style := range []SegStyle{SegSingle, SegTermAll} {
		rng := workload.NewRNG(42 + uint32(style))
		encP := []*Precinct{
			buildPrecinct(rng, 3, 2, style),
			buildPrecinct(rng, 1, 4, style),
			buildPrecinct(rng, 2, 2, style),
		}
		pkt := EncodePacket(encP, 0)

		decP := []*Precinct{NewPrecinct(3, 2), NewPrecinct(1, 4), NewPrecinct(2, 2)}
		n, err := DecodePacket(pkt, decP, 0, style)
		if err != nil {
			t.Fatalf("style %d: %v", style, err)
		}
		if n != len(pkt) {
			t.Fatalf("style %d: consumed %d of %d", style, n, len(pkt))
		}
		for pi, p := range encP {
			for i, eb := range p.Blocks {
				db := decP[pi].Blocks[i]
				if eb == nil {
					if db != nil && db.NumPasses != 0 {
						t.Fatalf("style %d: phantom block %d.%d", style, pi, i)
					}
					continue
				}
				if db.NumPasses != eb.NumPasses || db.ZeroBP != eb.ZeroBP {
					t.Fatalf("style %d blk %d.%d: got passes=%d zbp=%d want %d/%d",
						style, pi, i, db.NumPasses, db.ZeroBP, eb.NumPasses, eb.ZeroBP)
				}
				if len(db.Segments) != len(eb.Segments) {
					t.Fatalf("segment count mismatch")
				}
				for j := range db.Segments {
					if db.Segments[j].Len != eb.Segments[j].Len {
						t.Fatalf("segment %d length %d want %d", j, db.Segments[j].Len, eb.Segments[j].Len)
					}
				}
				if string(db.Data) != string(eb.Data) {
					t.Fatalf("style %d blk %d.%d: body bytes differ", style, pi, i)
				}
			}
		}
	}
}

func TestEmptyPacket(t *testing.T) {
	p := NewPrecinct(2, 2)
	pkt := EncodePacket([]*Precinct{p}, 0)
	if len(pkt) != 1 || pkt[0] != 0 {
		t.Fatalf("empty packet: % X", pkt)
	}
	dp := NewPrecinct(2, 2)
	n, err := DecodePacket(pkt, []*Precinct{dp}, 0, SegSingle)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	for _, b := range dp.Blocks {
		if b != nil && b.NumPasses != 0 {
			t.Fatal("empty packet produced inclusions")
		}
	}
}

func TestEmptyBandPrecinct(t *testing.T) {
	// Zero-area bands appear at deep decomposition levels.
	p := NewPrecinct(0, 0)
	rng := workload.NewRNG(1)
	q := buildPrecinct(rng, 2, 1, SegSingle)
	pkt := EncodePacket([]*Precinct{p, q}, 0)
	dp, dq := NewPrecinct(0, 0), NewPrecinct(2, 1)
	if _, err := DecodePacket(pkt, []*Precinct{dp, dq}, 0, SegSingle); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncatedPacketErrors(t *testing.T) {
	rng := workload.NewRNG(9)
	p := buildPrecinct(rng, 2, 2, SegSingle)
	pkt := EncodePacket([]*Precinct{p}, 0)
	dp := NewPrecinct(2, 2)
	if _, err := DecodePacket(pkt[:len(pkt)/2], []*Precinct{dp}, 0, SegSingle); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestPropPacketRoundTrip(t *testing.T) {
	f := func(seed uint32, style8 uint8) bool {
		style := SegStyle(style8 % 2)
		rng := workload.NewRNG(seed)
		w, h := rng.Intn(4)+1, rng.Intn(4)+1
		enc := buildPrecinct(rng, w, h, style)
		pkt := EncodePacket([]*Precinct{enc}, 0)
		dec := NewPrecinct(w, h)
		n, err := DecodePacket(pkt, []*Precinct{dec}, 0, style)
		if err != nil || n != len(pkt) {
			return false
		}
		for i, eb := range enc.Blocks {
			db := dec.Blocks[i]
			if eb == nil {
				if db != nil && db.NumPasses != 0 {
					return false
				}
				continue
			}
			if db.NumPasses != eb.NumPasses || db.ZeroBP != eb.ZeroBP || string(db.Data) != string(eb.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiLayerPacketRoundTrip(t *testing.T) {
	// Three blocks: included at layers 0, 1, and never.
	const layers = 3
	enc := NewPrecinct(3, 1)
	layerContribs := make([][]*BlockContrib, layers)
	mk := func(passes int, seed byte) *BlockContrib {
		b := &BlockContrib{NumPasses: passes}
		total := 0
		for j := 0; j < passes; j++ {
			b.Segments = append(b.Segments, Segment{Passes: 1, Len: 5 + j})
			total += 5 + j
		}
		b.Data = make([]byte, total)
		for i := range b.Data {
			b.Data[i] = seed + byte(i)
		}
		return b
	}
	enc.FirstIncl[0] = 0
	enc.ZeroBPs[0] = 2
	enc.FirstIncl[1] = 1
	enc.ZeroBPs[1] = 4
	layerContribs[0] = []*BlockContrib{mk(2, 10), nil, nil}
	layerContribs[1] = []*BlockContrib{mk(3, 20), mk(1, 30), nil}
	layerContribs[2] = []*BlockContrib{nil, mk(2, 40), nil}

	var pkts [][]byte
	for l := 0; l < layers; l++ {
		copy(enc.Blocks, layerContribs[l])
		pkts = append(pkts, EncodePacket([]*Precinct{enc}, l))
	}

	dec := NewPrecinct(3, 1)
	gotPasses := [3]int{}
	var gotZBP [3]int
	var gotData [3][]byte
	for l := 0; l < layers; l++ {
		n, err := DecodePacket(pkts[l], []*Precinct{dec}, l, SegTermAll)
		if err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
		if n != len(pkts[l]) {
			t.Fatalf("layer %d: consumed %d of %d", l, n, len(pkts[l]))
		}
		for i, b := range dec.Blocks {
			if b == nil || b.NumPasses == 0 {
				continue
			}
			if gotPasses[i] == 0 {
				gotZBP[i] = b.ZeroBP
			}
			gotPasses[i] += b.NumPasses
			gotData[i] = append(gotData[i], b.Data...)
		}
	}
	if gotPasses[0] != 5 || gotPasses[1] != 3 || gotPasses[2] != 0 {
		t.Fatalf("accumulated passes %v", gotPasses)
	}
	if gotZBP[0] != 2 || gotZBP[1] != 4 {
		t.Fatalf("zero bitplanes %v", gotZBP)
	}
	want0 := append(append([]byte{}, layerContribs[0][0].Data...), layerContribs[1][0].Data...)
	if string(gotData[0]) != string(want0) {
		t.Fatal("block 0 data mismatch across layers")
	}
	want1 := append(append([]byte{}, layerContribs[1][1].Data...), layerContribs[2][1].Data...)
	if string(gotData[1]) != string(want1) {
		t.Fatal("block 1 data mismatch across layers")
	}
}

func TestEPHPacketRoundTrip(t *testing.T) {
	rng := workload.NewRNG(55)
	enc := buildPrecinct(rng, 2, 2, SegTermAll)
	pkt := EncodePacketEPH([]*Precinct{enc}, 0, true)
	dec := NewPrecinct(2, 2)
	n, err := DecodePacketEPH(pkt, []*Precinct{dec}, 0, SegTermAll, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(pkt) {
		t.Fatalf("consumed %d of %d", n, len(pkt))
	}
	// A stream without EPH must be rejected by an EPH-expecting decoder.
	plain := EncodePacket([]*Precinct{buildPrecinct(workload.NewRNG(55), 2, 2, SegTermAll)}, 0)
	if _, err := DecodePacketEPH(plain, []*Precinct{NewPrecinct(2, 2)}, 0, SegTermAll, true); err == nil {
		t.Fatal("missing EPH accepted")
	}
	// Empty packets carry EPH too.
	empty := EncodePacketEPH([]*Precinct{NewPrecinct(1, 1)}, 0, true)
	if len(empty) != 3 {
		t.Fatalf("empty EPH packet: % X", empty)
	}
	if _, err := DecodePacketEPH(empty, []*Precinct{NewPrecinct(1, 1)}, 0, SegTermAll, true); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyPacketClearsStaleContribs pins the layered-decode contract:
// an empty packet at layer l must leave every block reporting zero
// contributions, even when layer l-1 filled the same precinct's Blocks.
// Before the fix, the empty-packet early return skipped the reset and a
// caller accumulating per-layer contributions double-counted layer
// l-1's passes and bytes.
func TestEmptyPacketClearsStaleContribs(t *testing.T) {
	rng := workload.NewRNG(99)
	encP := []*Precinct{buildPrecinct(rng, 2, 2, SegTermAll)}
	pkt0 := EncodePacket(encP, 0)
	// Layer 1: no block contributes anything further.
	for _, b := range encP[0].Blocks {
		if b != nil {
			b.NumPasses = 0
		}
	}
	pkt1 := EncodePacket(encP, 1)

	dp := []*Precinct{NewPrecinct(2, 2)}
	if _, err := DecodePacket(pkt0, dp, 0, SegTermAll); err != nil {
		t.Fatal(err)
	}
	saw := 0
	for _, b := range dp[0].Blocks {
		if b != nil && b.NumPasses > 0 {
			saw++
		}
	}
	if saw == 0 {
		t.Fatal("layer 0 packet carried no contributions; test needs a busier precinct")
	}
	if _, err := DecodePacket(pkt1, dp, 1, SegTermAll); err != nil {
		t.Fatal(err)
	}
	for i, b := range dp[0].Blocks {
		if b != nil && (b.NumPasses != 0 || len(b.Data) != 0) {
			t.Fatalf("block %d: stale layer-0 contribution (passes=%d, %d bytes) survived an empty layer-1 packet",
				i, b.NumPasses, len(b.Data))
		}
	}
}
