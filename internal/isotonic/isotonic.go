package isotonic

import "sync"

// FitL2 returns the non-decreasing sequence minimizing sum (z_i - y_i)^2
// using pool-adjacent-violators in O(n). Within each pooled block the
// fitted value is the block mean.
func FitL2(ys []float64) []float64 {
	return FitL2Weighted(ys, nil)
}

// FitL2Weighted is FitL2 with per-element positive weights; nil weights
// mean all ones. It panics on non-positive weights or mismatched lengths.
func FitL2Weighted(ys, ws []float64) []float64 {
	if ws != nil && len(ws) != len(ys) {
		panic("isotonic: weights length mismatch")
	}
	type block struct {
		sum, weight float64
		count       int
	}
	blocks := make([]block, 0, len(ys))
	for i, y := range ys {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w <= 0 {
				panic("isotonic: non-positive weight")
			}
		}
		blocks = append(blocks, block{sum: y * w, weight: w, count: 1})
		// Merge while the previous block mean exceeds the current one.
		for len(blocks) > 1 {
			a, b := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.weight <= b.sum/b.weight {
				break
			}
			blocks = blocks[:len(blocks)-1]
			blocks[len(blocks)-1] = block{
				sum:    a.sum + b.sum,
				weight: a.weight + b.weight,
				count:  a.count + b.count,
			}
		}
	}
	out := make([]float64, 0, len(ys))
	for _, b := range blocks {
		v := b.sum / b.weight
		for i := 0; i < b.count; i++ {
			out = append(out, v)
		}
	}
	return out
}

// FitL1 returns a non-decreasing sequence minimizing sum |z_i - y_i|
// in O(n log n) using the slope-trick algorithm: a max-heap of
// left-slope breakpoints is maintained; the recorded heap tops, scanned
// backwards under a running minimum, form an optimal fit. When the
// optimum is not unique this returns the pointwise-smallest optimal
// solution whose values are all drawn from the input values; in
// particular, integer inputs yield an integer fit (the property the
// paper relies on when it notes the L1 version "mostly returns
// integers").
func FitL1(ys []float64) []float64 {
	if len(ys) == 0 {
		return nil
	}
	return FitL1InPlace(append([]float64(nil), ys...))
}

// FitL1InPlace is FitL1 writing the fit into ys (which it destroys and
// returns). Step i reads ys[i] and then records the heap top in its
// place, and the backward minimum scan reads only those tops, so the
// input buffer holds the output. The heap comes from a pool, so a
// caller that owns ys fits without allocating.
func FitL1InPlace(ys []float64) []float64 {
	n := len(ys)
	if n == 0 {
		return ys
	}
	hp := heapPool.Get().(*[]float64)
	if cap(*hp) < n {
		*hp = make([]float64, 0, n)
	}
	h := (*hp)[:0]
	for i, y := range ys {
		// One step of the slope trick: add two breakpoints at y and
		// drop the largest. When the top exceeds y that is the top
		// itself, replaced by y; otherwise it is one of the new ys.
		if len(h) > 0 && h[0] > y {
			replaceTop(h, y)
		}
		h = push(h, y)
		ys[i] = h[0]
	}
	*hp = h
	heapPool.Put(hp)

	run := ys[n-1]
	for i := n - 1; i >= 0; i-- {
		if ys[i] < run {
			run = ys[i]
		}
		ys[i] = run
	}
	return ys
}

// CostL2 returns sum (z_i - y_i)^2.
func CostL2(ys, zs []float64) float64 {
	var c float64
	for i := range ys {
		d := zs[i] - ys[i]
		c += d * d
	}
	return c
}

// CostL1 returns sum |z_i - y_i|.
func CostL1(ys, zs []float64) float64 {
	var c float64
	for i := range ys {
		d := zs[i] - ys[i]
		if d < 0 {
			d = -d
		}
		c += d
	}
	return c
}

// ClampBox clamps each fitted value into [lo, hi] in place and returns
// the slice. Clamping a monotone sequence preserves monotonicity, and
// for separable convex isotonic problems the clamped unconstrained
// solution is optimal for the box-constrained problem.
func ClampBox(zs []float64, lo, hi float64) []float64 {
	for i, z := range zs {
		if z < lo {
			zs[i] = lo
		} else if z > hi {
			zs[i] = hi
		}
	}
	return zs
}

// Blocks returns the maximal runs of equal values in a fitted solution as
// (start, end) half-open index pairs. Section 5.1 estimates the variance
// of a fitted cell as noiseVar/len(block containing it).
func Blocks(zs []float64) [][2]int {
	var out [][2]int
	for i := 0; i < len(zs); {
		j := i + 1
		for j < len(zs) && zs[j] == zs[i] {
			j++
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// BlockSizes returns, for every index i, the size of the maximal
// equal-value run containing i in the fitted solution.
func BlockSizes(zs []float64) []int {
	out := make([]int, len(zs))
	for _, b := range Blocks(zs) {
		n := b[1] - b[0]
		for i := b[0]; i < b[1]; i++ {
			out[i] = n
		}
	}
	return out
}

// IsMonotone reports whether zs is non-decreasing.
func IsMonotone(zs []float64) bool {
	for i := 1; i < len(zs); i++ {
		if zs[i] < zs[i-1] {
			return false
		}
	}
	return true
}

// heapPool recycles FitL1InPlace's max-heap buffers (*[]float64);
// a buffer too small for the current fit is replaced by a larger one.
var heapPool = sync.Pool{New: func() any { return new([]float64) }}

// The breakpoint heap is a plain []float64 max-heap (no
// container/heap interface boxing on this hot path). Both sifts move a
// hole and write the sifted value once.

// push appends x to the max-heap h and sifts it up.
func push(h []float64, x float64) []float64 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= x {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h
}

// replaceTop overwrites the top of the non-empty max-heap h with x and
// sifts it down.
func replaceTop(h []float64, x float64) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] > h[c] {
			c = r
		}
		if h[c] <= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
