package isotonic

import (
	"math/rand"
	"sync"
	"testing"
)

// fitL1Oracle is the slope-trick fit as first written: push y, and if
// the heap top then exceeds y, pop it and push y again, with a swapping
// heap. FitL1InPlace's replace-top step and hole sifts must leave the
// heap holding the same multiset, so every recorded top — and the fit —
// is identical.
func fitL1Oracle(ys []float64) []float64 {
	n := len(ys)
	if n == 0 {
		return nil
	}
	h := make(oracleHeap, 0, n)
	tops := make([]float64, n)
	for i, y := range ys {
		h.push(y)
		if h[0] > y {
			h.pop()
			h.push(y)
		}
		tops[i] = h[0]
	}
	out := make([]float64, n)
	run := tops[n-1]
	for i := n - 1; i >= 0; i-- {
		if tops[i] < run {
			run = tops[i]
		}
		out[i] = run
	}
	return out
}

type oracleHeap []float64

func (h *oracleHeap) push(x float64) {
	*h = append(*h, x)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] >= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *oracleHeap) pop() float64 {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(*h) && (*h)[l] > (*h)[largest] {
			largest = l
		}
		if r < len(*h) && (*h)[r] > (*h)[largest] {
			largest = r
		}
		if largest == i {
			break
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
	return top
}

// nearMonotone returns an integer noisy cumulative vector of length n —
// the shape the Hc estimator fits — with noise of the given width.
func nearMonotone(r *rand.Rand, n, width int) []float64 {
	ys := make([]float64, n)
	var cum int
	for i := range ys {
		cum += r.Intn(3)
		ys[i] = float64(cum + r.Intn(2*width+1) - width)
	}
	return ys
}

func assertFitsEqual(t *testing.T, label string, ys, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d of %d: got %v, want %v (input %v)", label, i, len(ys), got[i], want[i], ys)
		}
	}
}

func TestFitL1MatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(1200)
		if trial%50 == 0 {
			n = trial / 50 // every length 0..7
		}
		ys := nearMonotone(r, n, 1+r.Intn(40))
		want := fitL1Oracle(ys)
		assertFitsEqual(t, "FitL1", ys, FitL1(ys), want)
		assertFitsEqual(t, "FitL1InPlace", ys, FitL1InPlace(append([]float64(nil), ys...)), want)
	}
}

// TestFitL1PooledHeapConcurrent fits vectors of varying lengths from
// several goroutines, so pooled heaps are reused across sizes and
// goroutines (run under -race).
func TestFitL1PooledHeapConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 60; trial++ {
				ys := nearMonotone(r, 1+r.Intn(2000), 1+r.Intn(30))
				want := fitL1Oracle(ys)
				got := FitL1InPlace(append([]float64(nil), ys...))
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("worker %d trial %d: index %d: got %v, want %v", seed, trial, i, got[i], want[i])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
