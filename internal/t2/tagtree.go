package t2

// TagTree is the quad-tree code of T.800 Annex B.10.2, used in packet
// headers to code code-block inclusion and the number of missing
// (all-zero) most significant bit planes. Each leaf corresponds to one
// code block; internal nodes hold the minimum of their children, and
// the coder emits only the increments needed at each threshold.
type TagTree struct {
	w, h   int
	nodes  []tagNode
	leaf0  int // index of the first leaf in nodes
	levels int
}

type tagNode struct {
	parent int32 // -1 at root
	value  int32
	low    int32
	known  bool
}

// maxTagLevels bounds a tree's depth: a grid of at most 2^31 leaves per
// side halves to the 1×1 root in at most 32 steps.
const maxTagLevels = 33

// NewTagTree builds a tree over a w×h grid of leaves.
func NewTagTree(w, h int) *TagTree {
	// invariant: only reachable through NewPrecinct, which skips tree
	// construction entirely for empty (w or h zero) precincts.
	if w <= 0 || h <= 0 {
		panic("t2: empty tag tree")
	}
	t := &TagTree{w: w, h: h}
	// Build level sizes from leaves up to the 1x1 root.
	type lvl struct{ w, h, base int }
	var lvs [maxTagLevels]lvl
	lv := lvs[:0]
	lw, lh, base := w, h, 0
	for {
		lv = append(lv, lvl{lw, lh, base})
		base += lw * lh
		if lw == 1 && lh == 1 {
			break
		}
		lw, lh = (lw+1)/2, (lh+1)/2
	}
	t.levels = len(lv)
	t.nodes = make([]tagNode, base)
	t.leaf0 = 0
	for li := 0; li < len(lv); li++ {
		cur := lv[li]
		for y := 0; y < cur.h; y++ {
			for x := 0; x < cur.w; x++ {
				idx := cur.base + y*cur.w + x
				if li == len(lv)-1 {
					t.nodes[idx].parent = -1
				} else {
					up := lv[li+1]
					t.nodes[idx].parent = int32(up.base + (y/2)*up.w + (x / 2))
				}
			}
		}
	}
	return t
}

// Reset clears coding state and sets every leaf value to v.
func (t *TagTree) Reset(v int32) {
	for i := range t.nodes {
		t.nodes[i].value = v
		t.nodes[i].low = 0
		t.nodes[i].known = false
	}
}

// SetValue assigns the value of leaf (x, y). Internal nodes are updated
// lazily by Finish.
func (t *TagTree) SetValue(x, y int, v int32) {
	t.nodes[y*t.w+x].value = v
}

// Finish propagates leaf values up: each internal node becomes the
// minimum of its children. Call once after all SetValue calls.
func (t *TagTree) Finish() {
	// Zero out internals first (they may hold Reset values).
	for i := t.w * t.h; i < len(t.nodes); i++ {
		t.nodes[i].value = 1 << 30
	}
	for i := 0; i < t.w*t.h; i++ {
		v := t.nodes[i].value
		for p := t.nodes[i].parent; p != -1; p = t.nodes[p].parent {
			if v < t.nodes[p].value {
				t.nodes[p].value = v
			} else {
				break
			}
		}
	}
}

// path writes the node indices from root down to leaf (x, y) into buf
// and returns them; the caller's array keeps the walk off the heap.
func (t *TagTree) path(x, y int, buf *[maxTagLevels]int32) []int32 {
	n := t.levels
	i := int32(y*t.w + x)
	for l := n - 1; l >= 0; l-- {
		buf[l] = i
		i = t.nodes[i].parent
	}
	return buf[:n]
}

// Encode emits the bits that let a decoder determine whether the leaf's
// value is < threshold (and, cumulatively over growing thresholds, the
// exact value).
func (t *TagTree) Encode(w *BitWriter, x, y int, threshold int32) {
	low := int32(0)
	var buf [maxTagLevels]int32
	for _, ni := range t.path(x, y, &buf) {
		n := &t.nodes[ni]
		if low > n.low {
			n.low = low
		} else {
			low = n.low
		}
		for low < threshold {
			if low >= n.value {
				if !n.known {
					w.WriteBit(1)
					n.known = true
				}
				break
			}
			w.WriteBit(0)
			low++
		}
		n.low = low
	}
}

// Decode consumes bits until it can report whether the leaf's value is
// < threshold.
func (t *TagTree) Decode(r *BitReader, x, y int, threshold int32) (bool, error) {
	low := int32(0)
	var leaf *tagNode
	var buf [maxTagLevels]int32
	for _, ni := range t.path(x, y, &buf) {
		n := &t.nodes[ni]
		if low > n.low {
			n.low = low
		} else {
			low = n.low
		}
		for low < threshold && low < n.value {
			bit, err := r.ReadBit()
			if err != nil {
				return false, err
			}
			if bit == 1 {
				n.value = low
				n.known = true
				break
			}
			low++
		}
		n.low = low
		leaf = n
	}
	return leaf.value < threshold, nil
}

// DecodeValue reads the exact leaf value by raising the threshold until
// the comparison resolves.
func (t *TagTree) DecodeValue(r *BitReader, x, y int) (int32, error) {
	th := int32(1)
	for {
		less, err := t.Decode(r, x, y, th)
		if err != nil {
			return 0, err
		}
		if less {
			return th - 1, nil
		}
		th++
	}
}
