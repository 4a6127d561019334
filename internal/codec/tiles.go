package codec

// Rect is one tile's placement within the image.
type Rect struct {
	X0, Y0, W, H int
}

// TileGrid returns the tile rectangles in raster order for an image
// split into tw×th tiles anchored at the origin (edge tiles shrink). A
// non-positive tile dimension spans the image on that axis, so
// TileGrid(w, h, 0, 0) is the one-tile grid of an untiled image.
func TileGrid(w, h, tw, th int) []Rect {
	if tw <= 0 {
		tw = w
	}
	if th <= 0 {
		th = h
	}
	var out []Rect
	for y := 0; y < h; y += th {
		hh := th
		if y+hh > h {
			hh = h - y
		}
		for x := 0; x < w; x += tw {
			ww := tw
			if x+ww > w {
				ww = w - x
			}
			out = append(out, Rect{X0: x, Y0: y, W: ww, H: hh})
		}
	}
	return out
}
