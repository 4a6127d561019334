package main

import (
	"bytes"
	"testing"

	"j2kcell"
	"j2kcell/internal/workload"
)

// smokeSize shrinks every workload so the whole file runs in seconds.
const smokeSize = 128

// TestSmokeEmitsDeclaredMetrics runs every workload in-process with a
// handful of ops and checks that each metric BENCHMARK.json declares is
// emitted, in its declared unit, with every output correct.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, def := range workloads {
		if sp.Workloads[i].Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, sp.Workloads[i].Name, def.name)
		}
		in, err := def.build(1, smokeSize)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		rep := runRep(in, repConfig{clients: def.clients, ops: 2 * len(in.Kinds)})
		if rep.Failed > 0 {
			t.Errorf("%s: %d of %d ops incorrect: %v", def.name, rep.Failed, rep.Attempted, rep.Errs)
		}
		if _, err := pick(endToEnd(in, []*repResult{rep}), sp.EndToEnd); err != nil {
			t.Errorf("%s end to end: %v", def.name, err)
		}
		tr := runTrace(in, repConfig{clients: def.clients, ops: len(in.Kinds)})
		if tr.Failed > 0 {
			t.Errorf("%s traced: %d of %d ops incorrect: %v", def.name, tr.Failed, tr.Attempted, tr.Errs)
		}
		if _, err := pick(perLayer(tr), sp.PerLayer); err != nil {
			t.Errorf("%s per layer: %v", def.name, err)
		}
	}
}

// TestCompositionMatchesCodec pins the traced composition to the codec:
// byte-identical codestreams and pixel-identical images for
// {MQ,HT}×{lossless,lossy, lossy rate-limited}.
func TestCompositionMatchesCodec(t *testing.T) {
	img := workload.Dial(smokeSize, smokeSize, 7, grain)
	for _, opt := range []j2kcell.Options{
		{Lossless: true}, {Lossless: true, HT: true},
		{}, {HT: true},
		{Rate: 0.1}, {Rate: 0.1, HT: true},
	} {
		want, _, err := j2kcell.Encode(img, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		got, err := composeEncode(img, opt, newLayerRec())
		if err != nil || !bytes.Equal(got.data, want) {
			t.Errorf("%+v: composed encode differs from j2kcell.Encode (err %v)", opt, err)
		}
		wantImg, err := j2kcell.Decode(want)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		gotImg, err := composeDecode(want, newLayerRec())
		if err != nil || !gotImg.Equal(wantImg) {
			t.Errorf("%+v: composed decode differs from j2kcell.Decode (err %v)", opt, err)
		}
	}
}

// TestCorruptOutputCountsAsFailure damages every encode output through
// the rep's hook and checks the damage lands in the failure count.
func TestCorruptOutputCountsAsFailure(t *testing.T) {
	in, err := buildLosslessMQ(1, smokeSize)
	if err != nil {
		t.Fatal(err)
	}
	r := runRep(in, repConfig{clients: 1, ops: 2, corrupt: func(b []byte) { b[len(b)/2] ^= 0xFF }})
	// Setup runs one encode and one decode, the loop one more of each;
	// both encodes are damaged.
	if r.Attempted != 4 || r.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2", r.Attempted, r.Failed)
	}
}
