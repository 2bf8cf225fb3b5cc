package noise

import (
	"math"
	"testing"
)

func TestDoubleGeometricMoments(t *testing.T) {
	g := New(1)
	const n = 200000
	scale := 2.0 // sensitivity 2, epsilon 1
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(g.DoubleGeometric(scale))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	wantVar := DoubleGeometricVariance(scale)
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %f, want ~0", mean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.05 {
		t.Errorf("variance = %f, want ~%f", variance, wantVar)
	}
}

func TestDoubleGeometricDistributionShape(t *testing.T) {
	// Empirical pmf should match (1-a)/(1+a) a^|k| within sampling error.
	g := New(7)
	const n = 400000
	scale := 1.0
	counts := map[int64]int{}
	for i := 0; i < n; i++ {
		counts[g.DoubleGeometric(scale)]++
	}
	a := math.Exp(-1 / scale)
	for k := int64(-3); k <= 3; k++ {
		want := (1 - a) / (1 + a) * math.Pow(a, math.Abs(float64(k)))
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("P(X=%d) = %f, want ~%f", k, got, want)
		}
	}
}

func TestDoubleGeometricSymmetry(t *testing.T) {
	g := New(42)
	const n = 100000
	pos, neg := 0, 0
	for i := 0; i < n; i++ {
		switch x := g.DoubleGeometric(1.5); {
		case x > 0:
			pos++
		case x < 0:
			neg++
		}
	}
	ratio := float64(pos) / float64(neg)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("pos/neg ratio = %f, want ~1", ratio)
	}
}

func TestLaplaceMoments(t *testing.T) {
	g := New(3)
	const n = 200000
	scale := 1.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Laplace(scale)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %f, want ~0", mean)
	}
	if math.Abs(variance-2)/2 > 0.05 {
		t.Errorf("variance = %f, want ~2", variance)
	}
}

func TestAddDoubleGeometricPreservesLength(t *testing.T) {
	g := New(11)
	xs := []int64{5, 10, 0, 3}
	out := g.AddDoubleGeometric(xs, 2)
	if len(out) != len(xs) {
		t.Fatalf("length = %d, want %d", len(out), len(xs))
	}
	// Input must not be modified.
	if xs[0] != 5 || xs[1] != 10 || xs[2] != 0 || xs[3] != 3 {
		t.Error("input slice was modified")
	}
}

func TestAddLaplacePreservesLength(t *testing.T) {
	g := New(11)
	xs := []int64{5, 10, 0}
	out := g.AddLaplace(xs, 1)
	if len(out) != len(xs) {
		t.Fatalf("length = %d, want %d", len(out), len(xs))
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.DoubleGeometric(1) != b.DoubleGeometric(1) {
			t.Fatal("same seed produced different streams")
		}
	}
}

// TestPanicsOnBadScale also pins the privacy guard: a scale at which
// exp(-1/scale) rounds to 1 would make every double-geometric draw 0 and
// release the input exactly, so it must panic like a non-positive one,
// also after another scale has been cached.
func TestPanicsOnBadScale(t *testing.T) {
	g := New(1)
	g.DoubleGeometric(2)
	fs := []func(){func() { g.Laplace(-1) }}
	for _, scale := range []float64{0, -1, 1e17, 1e300, math.Inf(1), math.NaN()} {
		if ScaleOK(scale) {
			t.Errorf("ScaleOK(%g) = true", scale)
		}
		fs = append(fs, func() { g.DoubleGeometric(scale) })
	}
	for i, f := range fs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad scale %d accepted", i)
				}
			}()
			f()
		}()
	}
	// The largest scales that still perturb: draws are nonzero.
	for _, scale := range []float64{1e15, 1e16} {
		if !ScaleOK(scale) {
			t.Fatalf("ScaleOK(%g) = false", scale)
		}
		nonzero := false
		for i := 0; i < 10; i++ {
			nonzero = nonzero || g.DoubleGeometric(scale) != 0
		}
		if !nonzero {
			t.Errorf("scale %g: ten zero draws", scale)
		}
	}
}

func TestVarianceFormulas(t *testing.T) {
	// As scale grows, double-geometric variance approaches 2*scale^2.
	for _, scale := range []float64{5, 20, 100} {
		dg := DoubleGeometricVariance(scale)
		lap := LaplaceVariance(scale)
		if math.Abs(dg-lap)/lap > 0.05 {
			t.Errorf("scale %f: dg var %f too far from laplace var %f", scale, dg, lap)
		}
		if dg > lap {
			t.Errorf("scale %f: double-geometric variance %f should not exceed laplace %f", scale, dg, lap)
		}
	}
}
