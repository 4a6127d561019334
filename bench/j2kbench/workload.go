package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"j2kcell"
	"j2kcell/internal/workload"
)

const (
	// opWorkers is the pool width of every timed op and of the shared
	// scheduler each rep process creates. It is a constant, not read from
	// the host, so two hosts run the same op shapes.
	opWorkers = 2
	// fullSize is the image side the benchmark runs at; tests shrink it.
	fullSize = 1024
	// grain is the Dial film-grain amplitude (j2kcell.TestImage's).
	grain = 5
	// psnrCap is the PSNR reported for a bit-exact reconstruction, whose
	// true PSNR is infinite.
	psnrCap = 100
	// PSNR floors of the lossy references at Rate 0.1 and fullSize,
	// under the 36.8 and 43.9 dB the encoder reaches by more than the
	// seed-to-seed spread, so a quality regression fails the run.
	htFloorDB    = 35
	thumbFloorDB = 42
)

// floorAt returns a PSNR floor pinned for fullSize images. Smaller
// images reach a lower PSNR at the same rate and are held to none.
func floorAt(size int, db float64) float64 {
	if size != fullSize {
		return 0
	}
	return db
}

// workloadDef is one set of inputs and the closed loop that drives it.
type workloadDef struct {
	name    string
	clients int // closed-loop client goroutines
	setOps  int // timed ops per rep in a full set
	build   func(seed int64, size int) (*inputs, error)
}

var workloads = []workloadDef{
	// The paper's configuration: Tier-1 MQ dominates both directions.
	{"lossless-mq", 1, 90, buildLosslessMQ},
	// HT bypasses MQ, so the transforms carry a large share of the op.
	{"lossy-ht", 1, 220, buildLossyHT},
	// Two ops in flight on the shared scheduler; the only lossy-MQ PCRD
	// and the only tiled and partial-decode paths.
	{"service-mixed", 2, 160, buildServiceMixed},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// opKind is one operation a workload repeats: an encode of Img, whose
// output must equal Stream byte for byte, or a decode of Stream under
// Dopt, whose output must equal Want pixel for pixel.
type opKind struct {
	Name   string
	Img    *j2kcell.Image
	Opt    j2kcell.Options
	Stream []byte
	Dopt   j2kcell.DecodeOptions
	Want   *j2kcell.Image
}

func (k *opKind) encode() bool { return k.Img != nil }

// run executes the op on a pool of the given width.
func (k *opKind) run(ctx context.Context, workers int) ([]byte, *j2kcell.Image, error) {
	if k.encode() {
		data, _, err := j2kcell.EncodeParallelContext(ctx, k.Img, k.Opt, workers)
		return data, nil, err
	}
	dopt := k.Dopt
	dopt.Workers = workers
	img, err := j2kcell.DecodeWithContext(ctx, k.Stream, dopt)
	return nil, img, err
}

// check compares an op's output with the reference made at setup.
func (k *opKind) check(data []byte, img *j2kcell.Image) error {
	if k.encode() {
		if !bytes.Equal(data, k.Stream) {
			return fmt.Errorf("%s: codestream differs from the reference (%d vs %d bytes)", k.Name, len(data), len(k.Stream))
		}
		return nil
	}
	if img == nil || !img.Equal(k.Want) {
		return fmt.Errorf("%s: decoded image differs from the reference", k.Name)
	}
	return nil
}

// inputs is everything a rep or traced process needs; the parent builds
// it once per run and hands it to each fresh process.
type inputs struct {
	Kinds []opKind
	// TraceEnc and TraceDec are the ops the traced process composes from
	// the per-layer calls.
	TraceEnc, TraceDec opKind
	BPP                float64 // codestream bits ÷ pixels over one encode of each kind
	PSNR               float64 // dB of the workload's lossy output, psnrCap if all lossless
}

// dialSeed derives the seed of the i-th image of a workload.
func dialSeed(seed int64, i int) uint32 { return uint32(seed)*4 + uint32(i) }

func buildLosslessMQ(seed int64, size int) (*inputs, error) {
	img := workload.Dial(size, size, dialSeed(seed, 0), grain)
	return roundTrip(img, j2kcell.Options{Lossless: true}, 0)
}

func buildLossyHT(seed int64, size int) (*inputs, error) {
	img := workload.Dial(size, size, dialSeed(seed, 0), grain)
	return roundTrip(img, j2kcell.Options{HT: true, Rate: 0.1}, floorAt(size, htFloorDB))
}

// roundTrip builds a one-image encode-then-decode workload.
func roundTrip(img *j2kcell.Image, opt j2kcell.Options, floorDB float64) (*inputs, error) {
	stream, dec, psnr, err := reference(img, opt, floorDB)
	if err != nil {
		return nil, err
	}
	enc := opKind{Name: "enc", Img: img, Opt: opt, Stream: stream}
	d := opKind{Name: "dec", Stream: stream, Want: dec}
	return &inputs{
		Kinds: []opKind{enc, d}, TraceEnc: enc, TraceDec: d,
		BPP: bitsPerPixel(len(stream), img), PSNR: psnr,
	}, nil
}

func buildServiceMixed(seed int64, size int) (*inputs, error) {
	thumbImg := workload.Dial(size/2, size/2, dialSeed(seed, 0), grain)
	thumbOpt := j2kcell.Options{Rate: 0.1, Levels: 4}
	thumb, _, psnr, err := reference(thumbImg, thumbOpt, floorAt(size, thumbFloorDB))
	if err != nil {
		return nil, fmt.Errorf("thumbnail: %w", err)
	}
	archImg := workload.Dial(size, size, dialSeed(seed, 1), grain)
	archOpt := j2kcell.Options{Lossless: true, TileW: size / 4, TileH: size / 4}
	archive, _, _, err := reference(archImg, archOpt, 0)
	if err != nil {
		return nil, fmt.Errorf("archival: %w", err)
	}
	// The partial decodes read an untiled lossless stream of the same
	// image; its full decode (checked bit-exact) is the crop reference.
	stream, full, _, err := reference(archImg, j2kcell.Options{Lossless: true}, 0)
	if err != nil {
		return nil, fmt.Errorf("lossless stream: %w", err)
	}
	rs := size / 4
	rng := workload.NewRNG(dialSeed(seed, 2))
	region := j2kcell.Rect{X0: rng.Intn(size - rs + 1), Y0: rng.Intn(size - rs + 1), W: rs, H: rs}
	discard := j2kcell.DecodeOptions{DiscardLevels: 2}
	reduced, err := j2kcell.DecodeWith(stream, discard)
	if err != nil {
		return nil, fmt.Errorf("discard reference: %w", err)
	}
	kinds := []opKind{
		{Name: "thumb", Img: thumbImg, Opt: thumbOpt, Stream: thumb},
		{Name: "archive", Img: archImg, Opt: archOpt, Stream: archive},
		{Name: "region", Stream: stream, Dopt: j2kcell.DecodeOptions{Region: region},
			Want: full.SubImage(region.X0, region.Y0, region.W, region.H)},
		{Name: "discard", Stream: stream, Dopt: discard, Want: reduced},
	}
	pixels := thumbImg.W*thumbImg.H + archImg.W*archImg.H
	return &inputs{
		Kinds:    kinds,
		TraceEnc: kinds[0],
		TraceDec: opKind{Name: "full", Stream: stream, Want: full},
		BPP:      float64(8*(len(thumb)+len(archive))) / float64(pixels),
		PSNR:     psnr,
	}, nil
}

// reference encodes img sequentially and checks the result every timed
// op is later compared against: a lossless stream must decode
// bit-exactly; a rate-limited one must fit the byte budget Rate implies
// and decode at or above floorDB.
func reference(img *j2kcell.Image, opt j2kcell.Options, floorDB float64) ([]byte, *j2kcell.Image, float64, error) {
	stream, _, err := j2kcell.Encode(img, opt)
	if err != nil {
		return nil, nil, 0, err
	}
	dec, err := j2kcell.Decode(stream)
	if err != nil {
		return nil, nil, 0, err
	}
	if opt.Lossless {
		if !dec.Equal(img) {
			return nil, nil, 0, errors.New("lossless reference does not round-trip")
		}
		return stream, dec, psnrCap, nil
	}
	budget := int(opt.Rate * float64(img.W*img.H*len(img.Comps)*img.Depth/8))
	if len(stream) > budget {
		return nil, nil, 0, fmt.Errorf("%d bytes exceed the %d-byte rate budget", len(stream), budget)
	}
	psnr := img.PSNR(dec)
	if psnr < floorDB {
		return nil, nil, 0, fmt.Errorf("PSNR %.2f dB is below the %d dB floor", psnr, int(floorDB))
	}
	return stream, dec, psnr, nil
}

func bitsPerPixel(n int, img *j2kcell.Image) float64 {
	return float64(8*n) / float64(img.W*img.H)
}
