// Package workload generates the deterministic synthetic test images
// used in place of the paper's (unavailable) 28.3 MB waltham_dial.bmp.
// The dial generator produces natural-image statistics: smooth radial
// gradients (low-frequency energy), sharp tick marks and numerals
// (edges that keep Tier-1 significance passes busy), specular
// highlights, and film grain (high-frequency noise that controls how
// compressible the image is).
package workload

import (
	"math"

	"j2kcell/internal/imgmodel"
)

// RNG is a tiny deterministic xorshift32 generator, so workloads are
// bit-identical across platforms and Go releases.
type RNG struct{ s uint32 }

// NewRNG seeds a generator; a zero seed is replaced by a fixed constant.
func NewRNG(seed uint32) *RNG {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &RNG{s: seed}
}

// Uint32 returns the next 32 pseudo-random bits.
func (r *RNG) Uint32() uint32 {
	x := r.s
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	r.s = x
	return x
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int { return int(r.Uint32() % uint32(n)) }

// Float returns a value in [0, 1).
func (r *RNG) Float() float64 { return float64(float64(r.Uint32()) / (1 << 32)) }

// Dial renders a w×h RGB watch-dial image with grain amplitude
// grain (0 disables noise; 6 approximates consumer-camera ISO noise).
func Dial(w, h int, seed uint32, grain float64) *imgmodel.Image {
	img := imgmodel.NewImage(w, h, 3, 8)
	rng := NewRNG(seed)
	cx, cy := float64(float64(w)/2), float64(float64(h)/2)
	rad := math.Min(cx, cy) * 0.95
	for y := 0; y < h; y++ {
		rr := img.Comps[0].Row(y)
		gg := img.Comps[1].Row(y)
		bb := img.Comps[2].Row(y)
		for x := 0; x < w; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			d := math.Hypot(dx, dy)
			ang := math.Atan2(dy, dx)

			// Brushed-metal background: radial gradient + subtle rings.
			base := 205 - 60*d/rad + float64(8*math.Sin(d*0.18))
			r8, g8, b8 := base, base*0.98, base*0.92

			if d < rad {
				// Dial face: cream with a vignette.
				face := 235 - float64(35*(d/rad)*(d/rad))
				r8, g8, b8 = face, face*0.97, face*0.88
				// Minute ticks: 60 thin dark wedges near the rim.
				tick := math.Mod(float64(ang/(2*math.Pi)*60)+60, 1)
				if d > rad*0.86 && d < rad*0.94 && (tick < 0.04 || tick > 0.96) {
					r8, g8, b8 = 30, 26, 24
				}
				// Hour markers: 12 thick wedges.
				hr := math.Mod(float64(ang/(2*math.Pi)*12)+12, 1)
				if d > rad*0.78 && d < rad*0.95 && (hr < 0.015 || hr > 0.985) {
					r8, g8, b8 = 15, 13, 12
				}
				// Hands.
				if wedge(ang, -math.Pi/3, 0.02) && d < rad*0.55 {
					r8, g8, b8 = 20, 18, 40
				}
				if wedge(ang, math.Pi/1.9, 0.015) && d < rad*0.75 {
					r8, g8, b8 = 20, 18, 40
				}
				// Specular highlight.
				hx, hy := dx+float64(rad*0.4), dy+float64(rad*0.4)
				hd := math.Hypot(hx, hy)
				if hd < rad*0.5 {
					k := float64(40 * (1 - hd/(rad*0.5)))
					r8, g8, b8 = r8+k, g8+k, b8+k
				}
			}
			if grain > 0 {
				n := float64((rng.Float() - 0.5) * 2 * grain)
				r8 += n
				g8 += float64(n * 0.9)
				b8 += float64(n * 1.1)
			}
			rr[x] = clamp8(r8)
			gg[x] = clamp8(g8)
			bb[x] = clamp8(b8)
		}
	}
	return img
}

func wedge(ang, at, width float64) bool {
	d := math.Abs(math.Mod(ang-at+3*math.Pi, 2*math.Pi) - math.Pi)
	return d < width*math.Pi
}

func clamp8(v float64) int32 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return int32(v + 0.5)
}

// Gradient renders a smooth diagonal ramp — the most compressible
// workload, exercising run-length-dominated Tier-1 cleanup passes.
func Gradient(w, h int) *imgmodel.Image {
	img := imgmodel.NewImage(w, h, 3, 8)
	for y := 0; y < h; y++ {
		for ci, p := range img.Comps {
			row := p.Row(y)
			for x := 0; x < w; x++ {
				row[x] = int32((x + y*(ci+1)) * 255 / (w + h*(ci+1)))
			}
		}
	}
	return img
}

// Noise renders uniform random samples — the least compressible
// workload, the upper bound on Tier-1 work per sample.
func Noise(w, h int, seed uint32) *imgmodel.Image {
	img := imgmodel.NewImage(w, h, 3, 8)
	rng := NewRNG(seed)
	for _, p := range img.Comps {
		for y := 0; y < h; y++ {
			row := p.Row(y)
			for x := range row {
				row[x] = int32(rng.Intn(256))
			}
		}
	}
	return img
}

// Entropy returns the entropy (bits/sample) of the horizontal
// first-difference signal — a standard proxy for how much work a
// wavelet coder faces. Tests use it to check that Dial sits between
// Gradient and Noise, i.e. behaves like a natural image.
func Entropy(img *imgmodel.Image) float64 {
	var hist [512]int64
	var n int64
	for _, p := range img.Comps {
		for y := 0; y < p.H; y++ {
			row := p.Row(y)
			for x := 1; x < len(row); x++ {
				hist[(row[x]-row[x-1])+256]++
				n++
			}
		}
	}
	var e float64
	for _, c := range hist {
		if c == 0 {
			continue
		}
		q := float64(c) / float64(n)
		e -= float64(q * math.Log2(q))
	}
	return e
}
