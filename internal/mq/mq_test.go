package mq

import (
	"testing"
	"testing/quick"

	"j2kcell/internal/workload"
)

// freshContexts returns n contexts at initial table state 0.
func freshContexts(n int) []Context {
	cxs := make([]Context, n)
	for i := range cxs {
		cxs[i] = NewContext(0)
	}
	return cxs
}

// batchSizes are the run lengths encodeBits cuts a decision sequence
// into, in turn, so batch boundaries land at every phase of the coder's
// interval and byte-out state.
var batchSizes = []int{1, 7, 2, 64, 3, 300, 31}

// encodeBits resets e and codes bits[i] in context ids[i] of nctx
// fresh contexts (context 0 throughout when ids is nil), packed as
// EncodeBatch ops, in batches cut by batchSizes, and returns the
// flushed segment. It fails the test unless the segment is
// byte-identical to the one a single batch of the whole sequence codes,
// so every caller also checks that batch boundaries do not matter.
func encodeBits(t *testing.T, e *Encoder, bits, ids []int, nctx int) []byte {
	t.Helper()
	ops := make([]uint8, len(bits))
	for i, b := range bits {
		id := 0
		if ids != nil {
			id = ids[i]
		}
		ops[i] = uint8(id<<1 | b)
	}
	cxs := freshContexts(nctx)
	e.Reset()
	for i, k := 0, 0; i < len(ops); k++ {
		j := min(i+batchSizes[k%len(batchSizes)], len(ops))
		e.EncodeBatch(ops[i:j], cxs)
		i = j
	}
	data := e.Flush()

	var whole Encoder
	whole.Reset()
	whole.EncodeBatch(ops, freshContexts(nctx))
	if want := whole.Flush(); string(data) != string(want) {
		t.Fatalf("batched segment (%d bytes) differs from one batch (%d bytes)", len(data), len(want))
	}
	return data
}

// roundTrip encodes the decision sequence with ctxIDs selecting among
// nctx contexts, then decodes and compares.
func roundTrip(t *testing.T, bits []int, ctxIDs []int, nctx int) {
	t.Helper()
	var e Encoder
	data := encodeBits(t, &e, bits, ctxIDs, nctx)

	decCtx := freshContexts(nctx)
	d := NewDecoder(data)
	for i := range bits {
		if got := d.Decode(&decCtx[ctxIDs[i]]); got != bits[i] {
			t.Fatalf("bit %d: decoded %d, want %d", i, got, bits[i])
		}
	}
}

func TestRoundTripSimplePatterns(t *testing.T) {
	patterns := [][]int{
		{0}, {1},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1, 1, 1, 1},
		{0, 1, 0, 1, 0, 1, 0, 1},
		{1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1},
	}
	for _, p := range patterns {
		ids := make([]int, len(p))
		roundTrip(t, p, ids, 1)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var e Encoder
	data := encodeBits(t, &e, nil, nil, 1)
	if len(data) > 3 {
		t.Fatalf("empty segment is %d bytes", len(data))
	}
}

func TestPropRoundTripRandom(t *testing.T) {
	f := func(seed uint32, n16 uint16, nctx8 uint8) bool {
		n := int(n16)%4000 + 1
		nctx := int(nctx8)%19 + 1
		rng := workload.NewRNG(seed)
		bits := make([]int, n)
		ids := make([]int, n)
		for i := range bits {
			bits[i] = rng.Intn(2)
			ids[i] = rng.Intn(nctx)
		}
		var e Encoder
		data := encodeBits(t, &e, bits, ids, nctx)
		decCtx := freshContexts(nctx)
		d := NewDecoder(data)
		for i := range bits {
			if d.Decode(&decCtx[ids[i]]) != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripSkewedSources(t *testing.T) {
	// Heavily skewed sources exercise the deep table states and carry
	// propagation.
	for _, p1 := range []int{1, 5, 50, 200, 250, 254} {
		rng := workload.NewRNG(uint32(p1))
		bits := make([]int, 20000)
		for i := range bits {
			if rng.Intn(255) < p1 {
				bits[i] = 1
			}
		}
		ids := make([]int, len(bits))
		roundTrip(t, bits, ids, 1)
	}
}

func TestCompressionOfSkewedSource(t *testing.T) {
	// An adaptive arithmetic coder must compress a 1%-ones source far
	// below 1 bit per symbol (entropy ≈ 0.08 bpс).
	rng := workload.NewRNG(99)
	const n = 100000
	bits := make([]int, n)
	for i := range bits {
		if rng.Intn(100) == 0 {
			bits[i] = 1
		}
	}
	var e Encoder
	data := encodeBits(t, &e, bits, nil, 1)
	bps := float64(len(data)*8) / n
	if bps > 0.15 {
		t.Fatalf("%.3f bits/symbol for 1%% source; coder not adapting", bps)
	}
}

func TestRandomSourceNearOneBit(t *testing.T) {
	rng := workload.NewRNG(7)
	const n = 50000
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	var e Encoder
	data := encodeBits(t, &e, bits, nil, 1)
	bps := float64(len(data)*8) / n
	if bps < 0.98 || bps > 1.1 {
		t.Fatalf("%.3f bits/symbol for random source, want ≈1", bps)
	}
}

func TestNoUnstuffedMarkersInOutput(t *testing.T) {
	// Byte stuffing must prevent any 0xFF followed by a byte > 0x8F.
	rng := workload.NewRNG(3)
	bits := make([]int, 200000)
	ids := make([]int, len(bits))
	for i := range bits {
		bits[i] = rng.Intn(2)
		ids[i] = rng.Intn(4)
	}
	var e Encoder
	data := encodeBits(t, &e, bits, ids, 4)
	for i := 0; i+1 < len(data); i++ {
		if data[i] == 0xFF && data[i+1] > 0x8F {
			t.Fatalf("marker code FF %02X at offset %d", data[i+1], i)
		}
	}
	if data[len(data)-1] == 0xFF {
		t.Fatal("segment ends in 0xFF")
	}
}

func TestTruncatedSegmentDoesNotCrash(t *testing.T) {
	rng := workload.NewRNG(5)
	bits := make([]int, 5000)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	var e Encoder
	data := encodeBits(t, &e, bits, nil, 1)
	for _, frac := range []int{0, 1, 2, 4} {
		n := len(data) * frac / 4
		dctx := NewContext(0)
		d := NewDecoder(data[:n])
		for range bits {
			v := d.Decode(&dctx)
			if v != 0 && v != 1 {
				t.Fatalf("invalid decision %d", v)
			}
		}
	}
}

func TestTruncatedPrefixDecodesPrefixBits(t *testing.T) {
	// The bits decodable before the truncation point must match; this
	// property is what makes rate-control truncation possible at all.
	rng := workload.NewRNG(11)
	bits := make([]int, 8000)
	for i := range bits {
		if rng.Intn(10) == 0 {
			bits[i] = 1
		}
	}
	var e Encoder
	data := encodeBits(t, &e, bits, nil, 1)
	// Decoding from a prefix of 3/4 of the segment must reproduce at
	// least half the decisions before diverging.
	dctx := NewContext(0)
	d := NewDecoder(data[:len(data)*3/4])
	correct := 0
	for i := range bits {
		if d.Decode(&dctx) == bits[i] {
			correct++
		} else {
			break
		}
	}
	if correct < len(bits)/2 {
		t.Fatalf("only %d/%d decisions survive 75%% truncation", correct, len(bits))
	}
}

func TestEncoderResetReusesBuffer(t *testing.T) {
	bits := make([]int, 1000)
	for i := range bits {
		bits[i] = i & 1
	}
	var e Encoder
	first := append([]byte(nil), encodeBits(t, &e, bits, nil, 1)...)
	second := encodeBits(t, &e, bits, nil, 1)
	if string(first) != string(second) {
		t.Fatal("encoder not deterministic across Reset")
	}
}

func TestContextInitialState(t *testing.T) {
	c := NewContext(46)
	if c.s != qeTable94[2*46] || c.s.mps != 0 {
		t.Fatalf("context init: %+v", c)
	}
}

func TestMPSFoldedTableMatchesSpec(t *testing.T) {
	// Every folded row must carry its spec row's Qe and transitions,
	// with the SWITCH rule applied to the LPS successor's MPS bit.
	for i, s := range qeTable {
		for m := uint8(0); m < 2; m++ {
			f := qeTable94[2*i+int(m)]
			if f.qe != s.qe || f.mps != m {
				t.Fatalf("state %d mps %d: row %+v", i, m, f)
			}
			if f.nmps>>1 != s.nmps || f.nmps&1 != m {
				t.Fatalf("state %d mps %d: bad MPS successor %d", i, m, f.nmps)
			}
			wantM := m
			if s.sw == 1 {
				wantM = 1 - m
			}
			if f.nlps>>1 != s.nlps || f.nlps&1 != wantM {
				t.Fatalf("state %d mps %d: bad LPS successor %d", i, m, f.nlps)
			}
		}
	}
}

func TestQeTableInvariants(t *testing.T) {
	for i, s := range qeTable {
		if s.qe == 0 || s.qe > 0x5601 {
			t.Errorf("state %d: Qe %#x out of range", i, s.qe)
		}
		if int(s.nmps) >= len(qeTable) || int(s.nlps) >= len(qeTable) {
			t.Errorf("state %d: transition out of table", i)
		}
		if s.sw == 1 && s.qe != 0x5601 {
			t.Errorf("state %d: SWITCH set on non-startup state", i)
		}
	}
	if qeTable[46].nmps != 46 || qeTable[46].nlps != 46 {
		t.Error("uniform state 46 must be absorbing")
	}
}
