// Observability must be a pure observer: enabling the recorder must
// not change a single output byte, and the disabled path must stay
// allocation-free so leaving the instrumentation compiled into the hot
// path costs nothing (pinned here and by BenchmarkEncodeObsOverhead).
package j2kcell

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"j2kcell/internal/obs"
)

// TestEncodeObsByteIdentical runs the determinism matrix under an
// operation recorder and compares against the unobserved stream: same
// bytes for {lossless, lossy} × {untiled, tiled} at every worker
// count.
func TestEncodeObsByteIdentical(t *testing.T) {
	img := TestImage(97, 61, 7)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			ref, _, err := EncodeParallel(img, tc.opt, 1) // obs off
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workerCounts() {
				t.Run(fmt.Sprintf("workers-%d", w), func(t *testing.T) {
					ctx, op := obs.WithOperation(context.Background(), "encode")
					got, _, err := EncodeParallelContext(ctx, img, tc.opt, w)
					op.Finish()
					if err != nil {
						t.Fatal(err)
					}
					rec := op.Recorder()
					if !bytes.Equal(got, ref) {
						t.Fatalf("observed stream differs from unobserved (%d vs %d bytes)",
							len(got), len(ref))
					}
					if rec.Counter(obs.CtrT1Blocks) == 0 {
						t.Fatal("recorder enabled but no Tier-1 blocks counted")
					}
				})
			}
		})
	}
}

// TestEncodeObsReportHasStages checks the full loop: encode under a
// recorder, build the Amdahl report, and require the pipeline stages
// to appear with plausible accounting.
func TestEncodeObsReportHasStages(t *testing.T) {
	img := TestImage(192, 160, 9)
	ctx, op := obs.WithOperation(context.Background(), "encode")
	_, _, err := EncodeParallelContext(ctx, img, Options{Lossless: true}, 2)
	op.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rec := op.Recorder()
	spans := rec.TSpans()
	rep := obs.BuildReport(spans, 2)
	if rep.Total <= 0 || rep.Busy <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if rep.SerialFrac < 0 || rep.SerialFrac > 1 {
		t.Fatalf("serial fraction %v out of [0,1]", rep.SerialFrac)
	}
	table := rep.Table()
	for _, stage := range []string{"mct", "dwt-v", "dwt-h", "t1", "t2", "frame"} {
		if !strings.Contains(table, stage) {
			t.Fatalf("report table missing stage %q:\n%s", stage, table)
		}
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans, rec.Counters()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty Chrome trace")
	}
}

// TestEncodeObsConcurrentAttribution is the contract of the
// context-scoped recorders: concurrent encodes and decodes, each
// under its own obs.WithOperation, must get distinct trace IDs,
// disjoint span sets (no decode stage ever lands in an encode op's
// recorder or vice versa), correct per-op class counts, and the
// aggregate registry must show exactly the rolled-up totals. Runs
// under -race in CI (matched by the TestEncodeObs pattern).
func TestEncodeObsConcurrentAttribution(t *testing.T) {
	prev := obs.SwapAggregate(nil)
	defer obs.SwapAggregate(prev)

	img := TestImage(128, 96, 5)
	stream, _, err := Encode(img, Options{Lossless: true}) // unobserved input
	if err != nil {
		t.Fatal(err)
	}

	const per = 3
	encOps := make([]*obs.Op, per)
	decOps := make([]*obs.Op, per)
	errc := make(chan error, 2*per)
	var wg sync.WaitGroup
	for i := 0; i < per; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			ctx, op := obs.WithOperation(context.Background(), "encode")
			encOps[i] = op
			_, _, err := EncodeParallelContext(ctx, img, Options{Lossless: true}, 2)
			op.Finish()
			if err != nil {
				errc <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			ctx, op := obs.WithOperation(context.Background(), "decode")
			decOps[i] = op
			_, err := DecodeWithContext(ctx, stream, DecodeOptions{Workers: 2})
			op.Finish()
			if err != nil {
				errc <- err
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	ids := map[string]bool{}
	for _, op := range append(append([]*obs.Op{}, encOps...), decOps...) {
		if op.TraceID() == "" || ids[op.TraceID()] {
			t.Fatalf("trace ID %q empty or duplicated", op.TraceID())
		}
		ids[op.TraceID()] = true
	}

	decStages := map[obs.Stage]bool{
		obs.StageZero: true, obs.StageDeq: true, obs.StageIDWTVert: true,
		obs.StageIDWTHorz: true, obs.StageIMCT: true, obs.StageDecode: true,
	}
	encStages := map[obs.Stage]bool{
		obs.StageMCT: true, obs.StageDWTVert: true, obs.StageDWTHorz: true,
		obs.StageRate: true, obs.StageFrame: true, obs.StageEncode: true,
	}
	encClass := obs.ClassOf(false, false, false, false)
	decClass := obs.ClassOf(true, false, false, false)

	for i, op := range encOps {
		rec := op.Recorder()
		spans := rec.TSpans()
		if len(spans) == 0 {
			t.Fatalf("encode op %d recorded no spans", i)
		}
		for _, sp := range spans {
			if decStages[sp.Stage] {
				t.Fatalf("encode op %d leaked decode-stage span %q", i, sp.Name)
			}
		}
		if rec.Counter(obs.CtrT1Blocks) == 0 {
			t.Fatalf("encode op %d counted no Tier-1 blocks", i)
		}
		if rec.Counter(obs.CtrDecodeParts) != 0 || rec.Counter(obs.CtrDecodeSingles) != 0 {
			t.Fatalf("encode op %d leaked decode partition counters", i)
		}
		if rec.OpCount(encClass) != 1 || rec.OpCount(decClass) != 0 {
			t.Fatalf("encode op %d class counts: enc=%d dec=%d",
				i, rec.OpCount(encClass), rec.OpCount(decClass))
		}
	}
	for i, op := range decOps {
		rec := op.Recorder()
		spans := rec.TSpans()
		if len(spans) == 0 {
			t.Fatalf("decode op %d recorded no spans", i)
		}
		for _, sp := range spans {
			if encStages[sp.Stage] {
				t.Fatalf("decode op %d leaked encode-stage span %q", i, sp.Name)
			}
		}
		if rec.Counter(obs.CtrDecodeParts)+rec.Counter(obs.CtrDecodeSingles) == 0 {
			t.Fatalf("decode op %d formed no Tier-1 partitions", i)
		}
		if rec.Counter(obs.CtrT1Blocks) != 0 {
			t.Fatalf("decode op %d leaked encode-side block counter", i)
		}
		if rec.OpCount(decClass) != 1 || rec.OpCount(encClass) != 0 {
			t.Fatalf("decode op %d class counts: dec=%d enc=%d",
				i, rec.OpCount(decClass), rec.OpCount(encClass))
		}
	}

	reg := obs.Aggregate()
	if reg.Ops(encClass) != per || reg.Ops(decClass) != per || reg.OpsTotal() != 2*per {
		t.Fatalf("aggregate ops: enc=%d dec=%d total=%d, want %d/%d/%d",
			reg.Ops(encClass), reg.Ops(decClass), reg.OpsTotal(), per, per, 2*per)
	}
	if reg.OpsActive() != 0 {
		t.Fatalf("operations still active after all Finish: %d", reg.OpsActive())
	}
	if reg.OpErrors() != 0 {
		t.Fatalf("aggregate op errors: %d", reg.OpErrors())
	}
}

// TestEncodeObsDisabledContextPathAllocs pins the disabled path:
// resolving the recorder from a context with no operation attached,
// plus every nil-recorder hook the codec calls (lane spans, counters,
// SLO recording), must stay allocation-free.
func TestEncodeObsDisabledContextPathAllocs(t *testing.T) {
	ctx := context.Background()
	if obs.FromContext(ctx) != nil {
		t.Fatal("FromContext on a plain context should be nil")
	}
	got := testing.AllocsPerRun(1000, func() {
		rec := obs.FromContext(ctx)
		ln := rec.Acquire()
		ln.Claim()
		sp := ln.Begin(obs.StageT1, 0, 0)
		sp.End()
		ln.Release()
		rec.Add(obs.CtrT1Blocks, 1)
		rec.OpDone(obs.ClassOf(false, false, false, false), 0)
		rec.OpFailed()
	})
	if got != 0 {
		t.Fatalf("obs-disabled context path allocates %.1f per op, want 0", got)
	}
}

// BenchmarkEncodeObsOverhead measures the whole-pipeline cost of the
// instrumentation: `off` is the unobserved default (a nil check per
// hook), `per-op` records every span and counter into a fresh
// operation recorder. The acceptance bar for the disabled path is ≤2%
// against an uninstrumented build.
func BenchmarkEncodeObsOverhead(b *testing.B) {
	img := TestImage(512, 512, 11)
	opt := Options{Lossless: true}
	workers := runtime.GOMAXPROCS(0)
	run := func(b *testing.B) {
		b.SetBytes(int64(img.W * img.H * len(img.Comps)))
		for i := 0; i < b.N; i++ {
			if _, _, err := EncodeParallel(img, opt, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", run)
	// per-op: a fresh context-scoped recorder per encode, including the
	// roll-up into the aggregate on Finish.
	b.Run("per-op", func(b *testing.B) {
		b.SetBytes(int64(img.W * img.H * len(img.Comps)))
		for i := 0; i < b.N; i++ {
			ctx, op := obs.WithOperation(context.Background(), "bench")
			if _, _, err := EncodeParallelContext(ctx, img, opt, workers); err != nil {
				b.Fatal(err)
			}
			op.Finish()
		}
	})
}
