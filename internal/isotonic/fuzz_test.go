package isotonic

import (
	"math"
	"testing"
)

// FuzzFitMonotone checks on arbitrary inputs that the solvers return
// monotone outputs of the right length, that the two L1 solvers agree
// on cost, and that FitL1 matches the push/pop/push oracle exactly.
func FuzzFitMonotone(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(4.0, 3.0, 2.0, 1.0)
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(-1e12, 1e12, -1e12, 1e12)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		ys := []float64{a, b, c, d}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return
			}
		}
		for name, fit := range map[string]func([]float64) []float64{
			"L1": FitL1, "L1PAV": FitL1PAV, "L2": FitL2,
		} {
			z := fit(ys)
			if len(z) != len(ys) {
				t.Fatalf("%s: length %d != %d", name, len(z), len(ys))
			}
			if !IsMonotone(z) {
				t.Fatalf("%s: not monotone: %v -> %v", name, ys, z)
			}
		}
		assertFitsEqual(t, "FitL1 vs oracle", ys, FitL1(ys), fitL1Oracle(ys))
		// The two L1 solvers must agree on cost.
		c1 := CostL1(ys, FitL1(ys))
		c2 := CostL1(ys, FitL1PAV(ys))
		if math.Abs(c1-c2) > 1e-6*(1+math.Abs(c1)) {
			t.Fatalf("L1 solvers disagree: %f vs %f on %v", c1, c2, ys)
		}
	})
}
