// Package rate implements post-compression rate-distortion
// optimization (PCRD-opt, Taubman's EBCOT Tier-1.5): given every code
// block's per-pass cumulative byte costs and distortion reductions, it
// chooses a truncation point for each block so total bytes meet a
// budget with minimal total distortion. The paper runs this stage
// sequentially on the PPE; at 16 SPE + 2 PPE it is ~60% of lossy
// encoding time, the Amdahl term that flattens Figure 5. This port
// shrinks that term by moving hull construction, which is
// embarrassingly parallel per block, into the Tier-1 block jobs (see
// BlockRD.ComputeHull); the λ bisection stays sequential on the
// coordinator, as in the paper.
package rate

import (
	"sort"

	"j2kcell/internal/faults"
	"j2kcell/internal/obs"
)

// BlockRD is the rate-distortion ladder of one code block: cumulative
// bytes and cumulative distortion reduction after each coding pass.
// Hull caches the block's convex hull; nil means not yet computed.
// Filling it via ComputeHull inside the (already parallel) Tier-1
// block job moves the hull sweep off the sequential rate-control tail.
type BlockRD struct {
	Rates []int
	Dists []float64
	Hull  []HullPoint
}

// HullPoint is a truncation point surviving the convex-hull sweep.
type HullPoint struct {
	Pass  int // number of passes kept (1-based)
	Slope float64
}

// ComputeHull computes and caches the block's convex hull. The result
// is always non-nil, so allocation can tell "computed, empty" from
// "not yet computed".
func (b *BlockRD) ComputeHull() {
	b.Hull = hull(*b)
}

// hull computes the strictly-decreasing-slope convex hull of a block's
// R-D ladder (slope = ΔD/ΔR from the previous hull point), the set of
// truncation points PCRD may legally choose.
func hull(b BlockRD) []HullPoint {
	at := func(i int) (int, float64) {
		if i < 0 {
			return 0, 0
		}
		return b.Rates[i], b.Dists[i]
	}
	var stack []int // 0-based pass indices on the hull
	for i := range b.Rates {
		r, d := at(i)
		for len(stack) > 0 {
			pr, pd := 0, 0.0
			if len(stack) >= 2 {
				pr, pd = at(stack[len(stack)-2])
			}
			tr, td := at(stack[len(stack)-1])
			if r <= tr {
				// No new bytes: keep the later pass only if it buys
				// strictly more distortion reduction for free.
				if d > td {
					stack[len(stack)-1] = i
				}
				r, d = -1, 0 // consumed
				break
			}
			sTop := (td - pd) / float64(tr-pr)
			sNew := (d - pd) / float64(r-pr)
			if sNew >= sTop {
				stack = stack[:len(stack)-1] // top is dominated
				continue
			}
			break
		}
		if r < 0 {
			continue
		}
		pr, pd := 0, 0.0
		if len(stack) > 0 {
			pr, pd = at(stack[len(stack)-1])
		}
		if r > pr && d > pd {
			stack = append(stack, i)
		}
	}
	pts := make([]HullPoint, 0, len(stack))
	pr, pd := 0, 0.0
	for _, i := range stack {
		r, d := at(i)
		pts = append(pts, HullPoint{Pass: i + 1, Slope: (d - pd) / float64(r-pr)})
		pr, pd = r, d
	}
	return pts
}

// hit is one entry to the "rate" fault point: the hull pass and each λ
// probe of Allocate. PCRD has no error return, so an injected error
// panics as its *faults.InjectedError; the codec, which runs PCRD,
// contains it.
func hit() {
	if err := faults.Hit("rate"); err != nil {
		panic(err)
	}
}

// Allocate returns, for each block, the number of passes to keep so
// that the summed truncated rates fit the byte budget with minimal
// distortion. A non-positive budget keeps nothing; a budget beyond the
// total keeps everything. Blocks whose Hull is nil get it computed
// here; the result is the same whether hulls were cached beforehand
// (as the parallel Tier-1 jobs do) or not. Hull builds and λ probes
// count against rec (nil-safe).
func Allocate(rec *obs.Recorder, blocks []BlockRD, budget int) []int {
	hit()
	for i := range blocks {
		if blocks[i].Hull == nil {
			blocks[i].ComputeHull()
			rec.Add(obs.CtrHulls, 1)
		}
	}

	total := 0
	var slopes []float64
	for i := range blocks {
		if n := len(blocks[i].Rates); n > 0 {
			total += blocks[i].Rates[n-1]
		}
		for _, p := range blocks[i].Hull {
			slopes = append(slopes, p.Slope)
		}
	}
	out := make([]int, len(blocks))
	if budget <= 0 {
		return out
	}
	if total <= budget {
		for i := range blocks {
			out[i] = len(blocks[i].Rates)
		}
		return out
	}

	// pick selects per-block passes for a slope threshold λ: keep every
	// hull point with slope >= λ.
	pick := func(lambda float64) (sel []int, bytes int) {
		rec.Add(obs.CtrRateProbes, 1)
		sel = make([]int, len(blocks))
		hit()
		for i := range blocks {
			keep := 0
			for _, p := range blocks[i].Hull {
				if p.Slope >= lambda {
					keep = p.Pass
				} else {
					break
				}
			}
			sel[i] = keep
			if keep > 0 {
				bytes += blocks[i].Rates[keep-1]
			}
		}
		return sel, bytes
	}

	// Binary search over the distinct slopes (descending) for the
	// smallest λ that fits, i.e. the most data we can keep.
	sort.Sort(sort.Reverse(sort.Float64Slice(slopes)))
	lo, hi := 0, len(slopes)-1 // index into sorted slopes
	best := out
	bestBytes := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		sel, bytes := pick(slopes[mid])
		if bytes <= budget {
			if bytes > bestBytes {
				best, bestBytes = sel, bytes
			}
			lo = mid + 1 // try a smaller slope (keep more)
		} else {
			hi = mid - 1
		}
	}
	if bestBytes < 0 {
		// Even the steepest single point overflows; keep nothing.
		return out
	}
	return best
}

// TotalBytes sums the selected truncation rates.
func TotalBytes(blocks []BlockRD, sel []int) int {
	n := 0
	for i, k := range sel {
		if k > 0 {
			n += blocks[i].Rates[k-1]
		}
	}
	return n
}

// TotalDistortion sums the residual distortion (initial minus recovered)
// for a selection, given each block's initial distortion.
func TotalDistortion(blocks []BlockRD, dist0 []float64, sel []int) float64 {
	var d float64
	for i, k := range sel {
		d += dist0[i]
		if k > 0 {
			d -= blocks[i].Dists[k-1]
		}
	}
	if d < 0 {
		return 0
	}
	return d
}
