// Package core is the paper's contribution: the JPEG2000 still-image
// encoder parallelized across the Cell/B.E.'s PPE and SPEs using the
// data decomposition scheme of Section 2.
//
// The pipeline (Figure 2) runs stage by stage with barriers between
// stages:
//
//	read/convert → merged level-shift + component transform → DWT
//	(vertical column groups, then horizontal rows, per level) →
//	[lossy: quantization] → Tier-1 over a work queue (PPE + SPEs) →
//	[lossy: sequential rate control on the PPE] → Tier-2 + stream I/O.
//
// All arithmetic runs as real Go code on data streamed through the
// simulated Local Stores, so the emitted codestream is byte-identical
// to the sequential reference codec; the virtual clock prices what the
// same schedule would have cost on the hardware.
package core

import (
	"fmt"

	"j2kcell/internal/cell"
	"j2kcell/internal/codec"
	"j2kcell/internal/decomp"
	"j2kcell/internal/imgmodel"
	"j2kcell/internal/sim"
	"j2kcell/internal/t1"
)

// Config selects the machine, the codec options, and the tuning knobs
// the ablation benchmarks sweep.
type Config struct {
	Cell  cell.Config
	Codec codec.Options

	// BufferDepth is the multi-buffering level for streamed stages
	// (1 = no overlap; the default 3 exploits the constant Local Store
	// footprint the decomposition scheme guarantees). 0 selects the
	// default; negative values act as 1.
	BufferDepth int
	// ChunkWidth is the column-chunk width in words for pixel-wise
	// stages and DWT column groups. 0 picks a balanced multiple of the
	// cache line per ChunkWidthFor.
	ChunkWidth int
	// NaiveDWT disables the interleaved/merged lifting, running the
	// split and lifting steps as separate sweeps (3 passes for 5/3,
	// 6 for 9/7) — the ablation for Section 4's loop interleaving.
	NaiveDWT bool
	// StaticT1 replaces the Tier-1 work queue with a static round-robin
	// block distribution — the load-balancing ablation.
	StaticT1 bool
	// PPET1 adds the PPE threads to Tier-1 encoding (the "+1 PPE" /
	// "+2 PPE" variants of Figures 4 and 5). Off by default: in the
	// base configuration the PPE orchestrates, handles the remainder
	// chunks and the sequential stages. With zero SPEs the PPE always
	// codes Tier-1 regardless of this flag.
	PPET1 bool
	// FixedPoint97 prices the lossy DWT with JasPer's fixed-point
	// arithmetic instead of floats — the Table 1 ablation. (Costs only;
	// the emitted bytes stay float-path so outputs remain comparable.)
	FixedPoint97 bool
	// Trace records per-PE busy spans for timeline rendering
	// (harness.RenderTimeline); small constant overhead per kernel call.
	Trace bool
	// LoopParallel reproduces the Meerwald et al. OpenMP-style port the
	// paper's introduction contrasts against: only Tier-1 and the DWT
	// are parallelized ("to minimize the code modification"); the level
	// shift, component transform, quantization and stream I/O stay
	// sequential on the PPE, capping the achievable speedup.
	LoopParallel bool
}

// DefaultConfig returns a single-chip configuration with n SPEs.
func DefaultConfig(nSPE int, opt codec.Options) Config {
	return Config{Cell: cell.DefaultConfig(nSPE), Codec: opt, BufferDepth: 3}
}

func (c Config) withDefaults() Config {
	if c.BufferDepth == 0 {
		c.BufferDepth = 3
	}
	c.BufferDepth = max(c.BufferDepth, 1)
	if c.Cell.PPEThreads == 0 {
		c.Cell.PPEThreads = 1
	}
	return c
}

// StageTime records one pipeline stage's span in cycles.
type StageTime struct {
	Name   string
	Cycles sim.Time
}

// Result is a completed parallel encode with its virtual-time costs.
type Result struct {
	Data   []byte
	Stats  codec.Stats
	Cycles sim.Time // makespan
	Stages []StageTime
	// DMA accounting summed over SPEs.
	DMABytes     int64
	DMALineBytes int64
	DMACmds      int64
	MemBytes     int64 // total off-chip traffic including PPE
	LSHighWater  int   // max Local Store bytes used by any SPE

	// Per-PE busy (compute) cycles, for chip-utilization analysis —
	// the property the remainder-chunk-to-PPE design targets.
	SPEBusy []sim.Time
	PPEBusy []sim.Time

	// Trace holds per-PE busy spans when Config.Trace was set.
	Trace *cell.Trace
}

// Utilization reports the fraction of PE-cycles spent computing over
// the makespan (1.0 = every PE busy the whole run).
func (r *Result) Utilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	var busy sim.Time
	n := 0
	for _, b := range r.SPEBusy {
		busy += b
		n++
	}
	for _, b := range r.PPEBusy {
		busy += b
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(busy) / (float64(n) * float64(r.Cycles))
}

// StageCycles returns the cycles of the named stage (0 if absent).
func (r *Result) StageCycles(name string) sim.Time {
	for _, s := range r.Stages {
		if s.Name == name {
			return s.Cycles
		}
	}
	return 0
}

// stage is one barrier-delimited pipeline phase. Either hook may be nil
// (the PE idles at the barrier).
type stage struct {
	name string
	spe  func(p *sim.Proc, s *cell.SPE, idx int)
	ppe  func(p *sim.Proc, pe *cell.PPE, idx int)
}

// Encode runs the parallel encoder and returns the codestream (byte
// identical to codec.Encode with the same options) plus the modeled
// execution profile.
func Encode(img *imgmodel.Image, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	opt := cfg.Codec.WithDefaults(img.W, img.H)
	cfg.Codec = opt
	if cfg.Cell.PPEThreads < 1 {
		return nil, fmt.Errorf("core: at least one PPE thread is required")
	}
	if opt.TileW > 0 || opt.TileH > 0 {
		return nil, fmt.Errorf("core: the Cell model encodes single-tile streams (the paper's configuration); use codec.Encode for tiled output")
	}
	m, err := cell.NewMachine(cfg.Cell)
	if err != nil {
		return nil, err
	}

	if cfg.Trace {
		m.Trace = cell.NewTrace()
	}
	enc := &encoder{cfg: cfg, m: m, img: img}
	if err := enc.plan(); err != nil {
		return nil, err
	}
	stages := enc.buildStages()

	nPE := len(m.SPEs) + len(m.PPEs)
	bar := &sim.Barrier{N: nPE}
	times := make([]sim.Time, len(stages))
	for i, s := range m.SPEs {
		i, s := i, s
		m.Eng.Spawn(fmt.Sprintf("spe%d", i), 0, func(p *sim.Proc) {
			for _, st := range stages {
				m.Trace.SetPhase(st.name)
				s.LS.Reset()
				if st.spe != nil {
					st.spe(p, s, i)
				}
				s.WaitAll(p)
				p.Arrive(bar)
			}
		})
	}
	for i, pe := range m.PPEs {
		i, pe := i, pe
		m.Eng.Spawn(fmt.Sprintf("ppe%d", i), 0, func(p *sim.Proc) {
			for si, st := range stages {
				m.Trace.SetPhase(st.name)
				if st.ppe != nil {
					st.ppe(p, pe, i)
				}
				p.Arrive(bar)
				if i == 0 {
					times[si] = p.Now()
				}
			}
		})
	}
	end := m.Run()

	res := &Result{Data: enc.result.Data, Stats: enc.result.Stats, Cycles: end}
	// Any trailing asynchronous write-back drains after the last
	// barrier; fold it into the final stage.
	times[len(times)-1] = end
	prev := sim.Time(0)
	for i, st := range stages {
		res.Stages = append(res.Stages, StageTime{Name: st.name, Cycles: times[i] - prev})
		prev = times[i]
	}
	for _, s := range m.SPEs {
		res.DMABytes += s.DMABytes
		res.DMALineBytes += s.DMALineBytes
		res.DMACmds += s.DMACmds
		if hw := s.LS.HighWater(); hw > res.LSHighWater {
			res.LSHighWater = hw
		}
		res.SPEBusy = append(res.SPEBusy, s.ComputeCycles)
	}
	for _, pe := range m.PPEs {
		res.PPEBusy = append(res.PPEBusy, pe.ComputeCycles)
	}
	res.MemBytes = m.Mem.TotalBytes
	for _, r := range m.Mems {
		res.MemBytes += r.TotalBytes
	}
	res.Trace = m.Trace
	return res, nil
}

// encoder carries the planned data flow shared by the stage closures.
type encoder struct {
	cfg Config
	m   *cell.Machine
	img *imgmodel.Image

	// Main-memory images of the pipeline data.
	iplanes []*decomp.Array[int32]   // integer planes (input, lossless coefficients, quantized indices)
	fplanes []*decomp.Array[float32] // float planes (lossy mid-pipeline)
	iaux    *decomp.Array[int32]     // vertical-DWT auxiliary buffer
	faux    *decomp.Array[float32]

	jobs   []codec.BlockJob
	blocks []*t1.Block

	result *codec.Result
}

func (e *encoder) plan() error {
	img, opt := e.img, e.cfg.Codec
	if img.W <= 0 || img.H <= 0 || len(img.Comps) == 0 {
		return fmt.Errorf("core: empty image")
	}
	for _, p := range img.Comps {
		if p.W != img.W || p.H != img.H {
			return fmt.Errorf("core: component geometry mismatch")
		}
	}
	ncomp := len(img.Comps)
	for c := 0; c < ncomp; c++ {
		e.iplanes = append(e.iplanes, decomp.NewArray[int32](e.m, img.W, img.H))
	}
	if !opt.Lossless {
		for c := 0; c < ncomp; c++ {
			e.fplanes = append(e.fplanes, decomp.NewArray[float32](e.m, img.W, img.H))
		}
		e.faux = decomp.NewArray[float32](e.m, img.W, (img.H+1)/2)
	} else {
		e.iaux = decomp.NewArray[int32](e.m, img.W, (img.H+1)/2)
	}
	_, e.jobs = codec.PlanBlocks(img.W, img.H, ncomp, opt)
	e.blocks = make([]*t1.Block, len(e.jobs))
	return nil
}

// chunkWidth picks the column-chunk width for a region of the given
// width.
func (e *encoder) chunkWidth(width int) int {
	if e.cfg.ChunkWidth > 0 {
		return e.cfg.ChunkWidth
	}
	return decomp.ChunkWidthFor(width, e.cfg.Cell.SPEs)
}

// rateControlOnPPE executes PCRD (inside codec.Finish) and charges its
// sequential PPE cost — the Amdahl tail that flattens lossy scaling.
func (e *encoder) rateControlOnPPE(p *sim.Proc, pe *cell.PPE) {
	opt := e.cfg.Codec
	e.result = codec.Finish(e.img, opt, e.jobs, e.blocks)
	if !opt.Lossless && opt.Rate > 0 {
		passes := 0
		for _, b := range e.blocks {
			passes += len(b.Passes)
		}
		pe.Compute(p, cell.Cycles(cell.PPECosts.RCPass, passes))
	}
}

// tier2OnPPE charges Tier-2 packet assembly and final stream I/O.
func (e *encoder) tier2OnPPE(p *sim.Proc, pe *cell.PPE) {
	res := e.result
	pe.Compute(p, cell.Cycles(cell.PPECosts.T2Byte, res.Stats.BodyBytes))
	pe.Compute(p, cell.Cycles(cell.PPECosts.IOByte, len(res.Data)))
	pe.Touch(p, int64(len(res.Data)))
}
