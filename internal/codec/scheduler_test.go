package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"j2kcell/internal/faults"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/obs"
	"j2kcell/internal/workload"
)

// waitGoroutinesBelow waits for exiting goroutines (pool workers after
// the last lane closes, canceled op workers) to drain, failing if the
// count stays above limit. Unlike goroutineCount it waits for a
// decrease, since scheduler workers exit asynchronously after Close.
func waitGoroutinesBelow(t *testing.T, limit int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > limit && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > limit {
		t.Errorf("%s: %d goroutines alive, want <= %d", what, n, limit)
	}
}

// TestSchedulerByteIdentityAcrossPoolWidths pins the DESIGN.md §12
// proof obligation: per-operation codestreams are pool-width
// independent. The same encode through pools of width 1, 2, and 8 must
// be byte-identical to the sequential encoder, and decodes
// pixel-identical.
func TestSchedulerByteIdentityAcrossPoolWidths(t *testing.T) {
	img := workload.Dial(160, 160, 21, 4)
	for _, opt := range []Options{
		{Lossless: true},
		{Rate: 0.25},
		{Lossless: true, HT: true},
		{Lossless: true, TileW: 96, TileH: 96},
	} {
		ref, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Decode(context.Background(), ref.Data, DecodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, width := range []int{1, 2, 8} {
			s := NewScheduler(SchedConfig{Workers: width})
			ctx := WithScheduler(context.Background(), s)
			res, err := Encode(ctx, img, opt, 4)
			if err != nil {
				t.Fatalf("pool width %d: %v", width, err)
			}
			if !bytes.Equal(res.Data, ref.Data) {
				t.Fatalf("opt %+v: codestream differs at pool width %d", opt, width)
			}
			dec, err := Decode(ctx, ref.Data, DecodeOptions{Workers: 4})
			if err != nil {
				t.Fatalf("decode pool width %d: %v", width, err)
			}
			if !imagesEqual(dec, seq) {
				t.Fatalf("opt %+v: decode differs at pool width %d", opt, width)
			}
		}
	}
}

// TestSchedulerConcurrentOpsByteIdentity runs many concurrent encodes
// and decodes on one narrow shared pool and requires every operation's
// output to match its solo reference — cross-lane execution by pool
// workers must never leak state between operations.
func TestSchedulerConcurrentOpsByteIdentity(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2})
	ctx := WithScheduler(context.Background(), s)

	opts := []Options{{Lossless: true}, {Rate: 0.3}, {Lossless: true, HT: true}, {Lossless: true, TileW: 64, TileH: 64}}
	var refs [4][]byte
	for i, opt := range opts {
		img := workload.Dial(128, 128, uint32(i+5), 4)
		ref, err := Encode(context.Background(), img, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.Data
	}

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			i := k % 4
			img := workload.Dial(128, 128, uint32(i+5), 4)
			res, err := Encode(ctx, img, opts[i], 4)
			if err != nil {
				errs[k] = err
				return
			}
			if !bytes.Equal(res.Data, refs[i]) {
				errs[k] = errors.New("codestream differs under concurrent shared scheduling")
			}
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
	}
}

// TestSchedulerTwoOpFaultIsolation is the PR 5 fault matrix made
// pool-wide: op A is canceled or hits an injected fault/panic while op
// B shares the same scheduler; B must complete byte-identical, A must
// fail with its own error, and no goroutines may leak (the concurrent
// two-op variant the CI race job runs).
func TestSchedulerTwoOpFaultIsolation(t *testing.T) {
	imgA := workload.Dial(192, 192, 77, 4)
	imgB := workload.Dial(128, 128, 13, 4)
	optB := Options{Lossless: true}
	refB, err := Encode(context.Background(), imgB, optB, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Each variant describes how op A is killed. The HT fault variants
	// arm the t1ht stage, which only op A (HT mode) enters, so the
	// injection deterministically targets A even though B runs
	// concurrently.
	variants := []struct {
		name string
		optA Options
		arm  func()
		kill func(cancel context.CancelFunc)
		want func(error) bool
	}{
		{
			name: "cancel",
			optA: Options{Lossless: true},
			kill: func(cancel context.CancelFunc) { time.Sleep(2 * time.Millisecond); cancel() },
			want: func(err error) bool { return errors.Is(err, context.Canceled) },
		},
		{
			name: "panic",
			optA: Options{Lossless: true, HT: true},
			arm:  func() { faults.Arm("t1ht", 2, faults.Panic) },
			want: func(err error) bool { var fe *FaultError; return errors.As(err, &fe) },
		},
		{
			name: "error",
			optA: Options{Lossless: true, HT: true},
			arm:  func() { faults.Arm("t1ht", 2, faults.Error) },
			want: func(err error) bool { var fe *FaultError; return errors.As(err, &fe) },
		},
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			before := goroutineCount()
			s := NewScheduler(SchedConfig{Workers: 2})
			base := WithScheduler(context.Background(), s)
			if v.arm != nil {
				v.arm()
				defer faults.Disarm()
			}

			ctxA, cancelA := context.WithCancel(base)
			defer cancelA()
			var errA error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errA = Encode(ctxA, imgA, v.optA, 4)
			}()
			if v.kill != nil {
				v.kill(cancelA)
			}

			// Op B runs while A is dying; it must be untouched.
			resB, errB := Encode(base, imgB, optB, 4)
			wg.Wait()
			if errB != nil {
				t.Fatalf("sibling op failed: %v", errB)
			}
			if !bytes.Equal(resB.Data, refB.Data) {
				t.Fatal("sibling op output changed while op A was killed")
			}
			if errA == nil {
				// Cancellation can race completion on a fast box; a clean
				// finish is acceptable only for the cancel variant.
				if v.arm != nil {
					t.Fatal("op A finished despite armed fault")
				}
			} else if !v.want(errA) {
				t.Fatalf("op A failed with %v, want variant-typed error", errA)
			}
			// All lanes closed => pool workers exit; nothing may leak.
			waitGoroutinesBelow(t, before+2, "after two-op "+v.name)

			// The pool must still serve new operations cleanly.
			resB2, err := Encode(base, imgB, optB, 4)
			if err != nil || !bytes.Equal(resB2.Data, refB.Data) {
				t.Fatalf("pool wedged after %s: err=%v", v.name, err)
			}
		})
	}
}

// TestSchedulerFairnessUnderLoad pins the starvation bound
// structurally: an archival operation holds its stage open on a 2-wide
// pool — its submitter and both pool workers parked inside jobs that
// wait on a gate — and thumbnail encodes sharing that pool must still
// complete before the gate opens. A thumbnail that waited for the
// archival lane to close would never finish. Each thumbnail's own
// recorder must count exactly its own operation. No assert compares
// durations.
func TestSchedulerFairnessUnderLoad(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2})
	base := WithScheduler(context.Background(), s)

	// 4 workers and 8 jobs: the submitter plus up to 3 pool executors
	// may enter the stage, so the 2-wide pool is fully occupied.
	const held = 3
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	arch := NewPipelineContext(base, 4)
	archDone := make(chan error, 1)
	go func() {
		defer arch.Close()
		archDone <- arch.run(obs.StageT1, 0, 8, func(int) {
			entered <- struct{}{}
			<-gate
		})
	}()
	for i := 0; i < held; i++ {
		<-entered
	}

	thumb := workload.Dial(64, 64, 4, 4)
	thumbsDone := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			ctx, rec := obs.WithOperation(base, "thumb")
			_, err := Encode(ctx, thumb, Options{Rate: 0.2}, 4)
			rec.Finish()
			if err != nil {
				thumbsDone <- err
				return
			}
			if o := rec.Outcome(); !o.Done || o.Class != obs.ClassOf(false, true, false, false) {
				thumbsDone <- fmt.Errorf("thumbnail %d: op outcome %v, want a lossy untiled MQ encode", i, o)
				return
			}
		}
		thumbsDone <- nil
	}()
	select {
	case err := <-thumbsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		close(gate)
		t.Fatal("thumbnail encodes did not complete while the archival stage was held open")
	}
	select {
	case <-archDone:
		t.Fatal("archival stage finished before its gate opened")
	default:
	}
	close(gate)
	if err := <-archDone; err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerNilContextAdmits pins that a nil context resolves to the
// process-default scheduler at every entry point — admission included.
// With every default slot held, a nil-ctx multi-worker operation must
// queue for admission rather than run on the pool unadmitted.
func TestSchedulerNilContextAdmits(t *testing.T) {
	s := DefaultScheduler()
	if schedulerFor(nil, 4) != s || schedulerFor(WithScheduler(context.Background(), nil), 4) != s {
		t.Fatal("nil ctx and nil binding must both resolve to the default scheduler")
	}
	if schedulerFor(nil, 1) != nil {
		t.Fatal("single-worker operations must not resolve a scheduler")
	}

	var held []func()
	defer func() {
		for _, r := range held {
			r()
		}
	}()
	for s.Stats().ActiveOps < s.maxActive {
		r, err := s.Admit(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, r)
	}

	img := workload.Dial(64, 64, 9, 4)
	ref, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var nilCtx context.Context
	waits := s.Stats().AdmitWaits
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { _, err := Encode(nilCtx, img, Options{Lossless: true}, 4); return err }},
		{"encode-tiled", func() error {
			_, err := Encode(nilCtx, img, Options{Lossless: true, TileW: 32, TileH: 32}, 4)
			return err
		}},
		{"decode", func() error { _, err := Decode(nilCtx, ref.Data, DecodeOptions{Workers: 4}); return err }},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.run() }()
		for i := 0; i < 10000 && s.Stats().QueueDepth == 0; i++ {
			select {
			case err := <-done:
				t.Fatalf("%s with nil ctx ran without an admission slot (err=%v)", tc.name, err)
			default:
			}
			time.Sleep(time.Millisecond)
		}
		if s.Stats().QueueDepth != 1 {
			t.Fatalf("%s with nil ctx never queued for admission", tc.name)
		}
		// Hand one held slot to the queued operation, then take back the
		// slot it returns when it finishes.
		held[0]()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if held[0], err = s.Admit(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().AdmitWaits - waits; got != 3 {
		t.Fatalf("admit waits = %d, want 3", got)
	}
}

// TestSchedulerAdmissionBackpressure pins the admission queue: slots
// fill, the queue bounds, the overflow rejects with ErrOverloaded, a
// queued operation records its wait in the admit-stage histogram, and
// cancellation while queued returns ctx.Err() without losing a slot.
func TestSchedulerAdmissionBackpressure(t *testing.T) {
	s := NewScheduler(SchedConfig{Workers: 2, MaxActive: 1, MaxQueue: 1})
	ctx := WithScheduler(context.Background(), s)
	img := workload.Dial(64, 64, 8, 4)

	// Hold the only active slot.
	release1, err := s.Admit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue with a waiter.
	queued := make(chan error, 1)
	go func() {
		release2, err := s.Admit(context.Background(), nil)
		if err == nil {
			defer release2()
		}
		queued <- err
	}()
	// Wait until the waiter is actually parked in the queue.
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().QueueDepth != 1 {
		t.Fatalf("queue depth %d, want 1", s.Stats().QueueDepth)
	}

	// Queue full: a real encode must shed with ErrOverloaded.
	if _, err := Encode(ctx, img, Options{Lossless: true}, 4); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	// And a decode entry point sheds the same way.
	ref, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(ctx, ref.Data, DecodeOptions{Workers: 4}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("decode got %v, want ErrOverloaded", err)
	}
	if got := s.Stats().AdmitRejects; got < 2 {
		t.Fatalf("admit rejects %d, want >= 2", got)
	}

	// Release the active slot: the first waiter gets it.
	release1()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter got %v after release", err)
	}

	// Re-occupy the only active slot for the remaining checks.
	release3, err := s.Admit(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Cancellation while queued: returns ctx.Err, frees the queue slot.
	cctx, cancel := context.WithCancel(context.Background())
	cancelErr := make(chan error, 1)
	go func() {
		_, err := s.Admit(cctx, nil)
		cancelErr <- err
	}()
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-cancelErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued+canceled Admit returned %v, want context.Canceled", err)
	}
	if got := s.Stats().QueueDepth; got != 0 {
		t.Fatalf("canceled waiter left queue depth %d, want 0", got)
	}
	// Queue-wait lands in the per-op SLO surface: run an op that has to
	// queue behind the held slot and check its recorder holds the wait
	// as an admit-stage span.
	opCtx, rec := obs.WithOperation(ctx, "queued-encode")
	done := make(chan error, 1)
	go func() {
		_, err := Encode(opCtx, img, Options{Lossless: true}, 4)
		done <- err
	}()
	for i := 0; i < 1000 && s.Stats().QueueDepth == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	release3()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rec.Finish()
	if got := rec.Counter(obs.CtrSchedAdmitWaits); got != 1 {
		t.Errorf("sched_admit_waits = %d, want 1", got)
	}
	admits := 0
	for _, sp := range rec.TSpans() {
		if sp.Stage == obs.StageAdmit {
			admits++
		}
	}
	if admits != 1 {
		t.Errorf("op recorded %d admit-stage spans, want 1", admits)
	}
}

// TestSchedulerGoroutineBound pins the whole point of the shared pool:
// c concurrent operations at `workers` width hold the process at
// O(GOMAXPROCS + c) goroutines, not O(c×workers). The op mix covers
// every multi-worker path: lossless encode, rate-constrained lossy
// encode (rate control included), and decode.
func TestSchedulerGoroutineBound(t *testing.T) {
	const (
		concOps   = 8
		opWorkers = 8
		poolWidth = 2
	)
	before := goroutineCount()
	s := NewScheduler(SchedConfig{Workers: poolWidth})
	ctx := WithScheduler(context.Background(), s)
	img := workload.Dial(160, 160, 31, 4)
	ref, err := Encode(context.Background(), img, Options{Lossless: true}, 1)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var hwm atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if g := int64(runtime.NumGoroutine()); g > hwm.Load() {
					hwm.Store(g)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < concOps; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var err error
			switch k % 3 {
			case 0:
				_, err = Encode(ctx, img, Options{Lossless: true}, opWorkers)
			case 1:
				_, err = Encode(ctx, img, Options{Rate: 0.1}, opWorkers)
			default:
				_, err = Decode(ctx, ref.Data, DecodeOptions{Workers: opWorkers})
			}
			if err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	close(stop)

	// Budget: baseline + one driver per op + the pool + sampler slack.
	limit := int64(before + concOps + poolWidth + 6)
	if got := hwm.Load(); got > limit {
		t.Errorf("goroutine high-water %d exceeds shared-pool bound %d (per-op pools would be ~%d)",
			got, limit, before+concOps*opWorkers)
	}
	waitGoroutinesBelow(t, before+2, "after bounded run")
}

// imagesEqual compares two decoded images sample-exactly.
func imagesEqual(a, b *imgmodel.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Comps) != len(b.Comps) {
		return false
	}
	for c := range a.Comps {
		pa, pb := a.Comps[c], b.Comps[c]
		for y := 0; y < pa.H; y++ {
			ra := pa.Data[y*pa.Stride : y*pa.Stride+pa.W]
			rb := pb.Data[y*pb.Stride : y*pb.Stride+pb.W]
			for x, v := range ra {
				if rb[x] != v {
					return false
				}
			}
		}
	}
	return true
}
