// Package j2kcell is a from-scratch JPEG2000 still-image codec in pure
// Go, together with a calibrated performance model of the Cell
// Broadband Engine that reproduces Kang & Bader, "Optimizing JPEG2000
// Still Image Encoding on the Cell Broadband Engine" (ICPP 2008).
//
// One encoder core serves two entry points, and the paper's model
// emits the same codestream:
//
//   - Encode and EncodeParallelContext: the native Go encoder, which
//     runs the whole pipeline — MCT, DWT, quantization, and Tier-1 —
//     stage-parallel across a goroutine worker pool, the Go analogue
//     of the paper's whole-pipeline SPE parallelization. Encode is its
//     one-worker form; the bytes are the same for every worker count;
//   - Simulate: the paper's parallelization executed on the simulated
//     Cell/B.E. (internal/core), returning the modeled execution
//     profile used to regenerate the paper's figures.
//
// Decode, DecodeWith and DecodeWithContext reconstruct images (all or
// a progressive subset); DecodeResilientContext decodes damaged
// streams as far as possible and reports what was lost.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package j2kcell

import (
	"context"
	"runtime"

	"j2kcell/internal/codec"
	"j2kcell/internal/core"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/jp2"
	"j2kcell/internal/workload"
)

// Image is a planar integer image (full-resolution components).
type Image = imgmodel.Image

// Plane is one image component.
type Plane = imgmodel.Plane

// Options selects the coding path: Lossless (RCT + 5/3) or lossy
// (ICT + 9/7 + deadzone quantization), decomposition levels, code block
// size, and the lossy rate target as a fraction of the raw size.
type Options = codec.Options

// Stats summarizes an encode.
type Stats = codec.Stats

// NewImage allocates a w×h image with n zeroed components of the given
// bit depth.
func NewImage(w, h, ncomp, depth int) *Image { return imgmodel.NewImage(w, h, ncomp, depth) }

// TestImage renders the deterministic synthetic "watch dial" workload
// used throughout the benchmarks (a stand-in for the paper's 28.3 MB
// waltham_dial.bmp).
func TestImage(w, h int, seed uint32) *Image { return workload.Dial(w, h, seed, 5) }

// FaultError reports a panic contained inside a codec worker
// goroutine: the pipeline stage, worker lane, and job it escaped from.
// The operation that contained it failed cleanly — no goroutine
// leaked, pooled buffers were returned. It signals a codec bug (or an
// injected test fault), never bad input.
type FaultError = codec.FaultError

// FormatError reports a malformed, truncated, or limit-exceeding
// codestream; retrying cannot help. The underlying parse error is
// reachable via errors.Unwrap.
type FormatError = codec.FormatError

// Limits bounds what the decoder accepts from an untrusted stream's
// main header (dimensions, components, levels, tiles, pixel budget),
// enforced before any allocation sized from header fields.
type Limits = codec.Limits

// DefaultLimits returns the header limits applied when DecodeOptions
// carries none.
func DefaultLimits() Limits { return codec.DefaultLimits() }

// Encode compresses img into a JPEG2000 codestream on one worker;
// EncodeParallelContext with any worker count writes the same bytes.
func Encode(img *Image, opt Options) ([]byte, *Stats, error) {
	return result(codec.Encode(context.Background(), img, opt, 1))
}

// EncodeParallelContext compresses img with every pipeline stage —
// merged level shift + component transform, multi-level DWT,
// quantization, and Tier-1 block coding — spread across `workers`
// goroutines (workers <= 0 selects GOMAXPROCS). Untiled images
// parallelize within each stage (row stripes and cache-line column
// groups, with quantization fused into the Tier-1 work queue on the
// lossy path); tiled images parallelize across tiles. The output is
// byte-identical to Encode for every worker count. Cancellation stops
// the stage work queues within at most one outstanding job per worker
// and returns ctx.Err() unwrapped (errors.Is-compatible with
// context.Canceled / context.DeadlineExceeded).
func EncodeParallelContext(ctx context.Context, img *Image, opt Options, workers int) ([]byte, *Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return result(codec.Encode(ctx, img, opt, workers))
}

// result unpacks an encode for the public signatures.
func result(res *codec.Result, err error) ([]byte, *Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	return res.Data, &res.Stats, nil
}

// Decode reconstructs an image from a raw codestream or a JP2 file
// produced by this package's encoders (auto-detected).
func Decode(data []byte) (*Image, error) {
	return codec.Decode(context.Background(), data, DecodeOptions{})
}

// WrapJP2 wraps an already-encoded codestream for img in the JP2 file
// container (signature, file-type, header and codestream boxes) — the
// bytes to write to a .jp2 file. Decode accepts both formats.
func WrapJP2(img *Image, codestream []byte) []byte {
	return jp2.Wrap(jp2.Info{
		W: img.W, H: img.H, NComp: len(img.Comps), Depth: img.Depth,
		SRGB: len(img.Comps) == 3,
	}, codestream)
}

// DecodeOptions selects progressive decoding subsets: MaxLayers
// truncates the quality progression, DiscardLevels the resolution
// progression, Region decodes a spatial window.
type DecodeOptions = codec.DecodeOptions

// Rect is an image-space rectangle (used for window decoding and tile
// geometry).
type Rect = codec.Rect

// DecodeWith reconstructs an image from a subset of the progression —
// fewer quality layers (for streams encoded with Options.LayerRates),
// fewer resolution levels (any stream) or a spatial Region — with the
// inverse chain spread across opt.Workers goroutines. Output is
// pixel-identical for every worker count.
func DecodeWith(data []byte, opt DecodeOptions) (*Image, error) {
	return codec.Decode(context.Background(), data, opt)
}

// DecodeWithContext is DecodeWith bound to a context: cancellation
// stops the decode between packets and stage jobs and returns
// ctx.Err() unwrapped.
func DecodeWithContext(ctx context.Context, data []byte, opt DecodeOptions) (*Image, error) {
	return codec.Decode(ctx, data, opt)
}

// DamageReport is the structured outcome of a best-effort decode: what
// was lost (per tile and per code block, with worst-case affected
// regions), how many resyncs recovery needed, and how much of the
// payload was salvaged.
type DamageReport = codec.DamageReport

// TileDamage is one damaged tile's loss map within a DamageReport.
type TileDamage = codec.TileDamage

// BlockLoss identifies one concealed code block within a TileDamage.
type BlockLoss = codec.BlockLoss

// DecodeResilientContext decodes a possibly damaged codestream as far
// as possible: detection failures, parse errors, contained faults and
// truncation each discard only the affected code block, packet or
// tile-part (concealed as zero coefficients), resynchronizing on SOP
// and SOT markers. Any input yields an image and a report; err is
// non-nil only for cancellation, admission rejection or a contained
// codec fault, never for stream damage. opt's Region, DiscardLevels
// and MaxLayers apply as in DecodeWith; one the stream cannot honour
// is noted in the report instead of failing. The strict decodes run
// the same decode and succeed exactly when the report is Complete.
// Streams encoded with Options.Resilience carry the markers and
// per-pass protection that make damage detectable and containment
// fine-grained.
func DecodeResilientContext(ctx context.Context, data []byte, opt DecodeOptions) (*Image, *DamageReport, error) {
	return codec.DecodeResilient(ctx, data, opt)
}

// Scheduler bounds concurrent encodes and decodes with two counting
// semaphores (DESIGN.md §12): admission tokens for running operations,
// and a fixed number of helper tokens for the goroutines that help
// drain their stages. It is the only way an operation runs on more
// than one goroutine: multi-worker operations use the process-default
// scheduler automatically; bind an explicit one with WithScheduler to
// isolate a tenant or narrow the helpers. Single-worker operations run
// inline and never touch it.
type Scheduler = codec.Scheduler

// SchedConfig configures a Scheduler: helper width and admission
// bounds (MaxActive running + MaxQueue waiting before ErrOverloaded).
type SchedConfig = codec.SchedConfig

// SchedStats is a snapshot of a scheduler's helpers, admission queue,
// and claim counters.
type SchedStats = codec.SchedStats

// ErrOverloaded is returned by the parallel encode/decode entry points
// when the shared scheduler's admission queue is full. The operation
// was never started; shed load or retry with backoff.
var ErrOverloaded = codec.ErrOverloaded

// NewScheduler builds an isolated scheduler (zero config fields take
// defaults: GOMAXPROCS workers, 8×workers active, 4× that queued).
func NewScheduler(cfg SchedConfig) *Scheduler { return codec.NewScheduler(cfg) }

// WithScheduler binds operations started under ctx to s. A nil s means
// the process-default scheduler.
func WithScheduler(ctx context.Context, s *Scheduler) context.Context {
	return codec.WithScheduler(ctx, s)
}

// SchedulerStats snapshots the process-default shared scheduler.
func SchedulerStats() SchedStats { return codec.DefaultScheduler().Stats() }

// SimConfig configures a simulated Cell/B.E. encode: the machine
// (chips, SPEs, PPE threads), the codec options, and the tuning knobs
// the paper's ablations sweep (buffering depth, chunk width, fused vs
// naive lifting, work queue vs static Tier-1, PPE Tier-1 participation,
// fixed-point 9/7 pricing).
type SimConfig = core.Config

// SimResult is a simulated encode: the codestream (byte-identical to
// Encode) plus the modeled cycles, per-stage breakdown and DMA traffic.
type SimResult = core.Result

// DefaultSimConfig returns a single-chip machine with n SPEs.
func DefaultSimConfig(nSPE int, opt Options) SimConfig { return core.DefaultConfig(nSPE, opt) }

// Simulate runs the paper's parallel encoder on the modeled Cell/B.E.
func Simulate(img *Image, cfg SimConfig) (*SimResult, error) { return core.Encode(img, cfg) }
