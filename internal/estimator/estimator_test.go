package estimator

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hcoc/internal/histogram"
	"hcoc/internal/noise"
)

var allMethods = []Method{MethodHc, MethodHg, MethodNaive, MethodHcL2}

func defaultParams() Params { return Params{Epsilon: 1.0, K: 200} }

func randomHistForEst(r *rand.Rand) histogram.Hist {
	n := 1 + r.Intn(100)
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = int64(r.Intn(30))
	}
	return histogram.FromSizes(sizes)
}

func TestEstimateInvariants(t *testing.T) {
	// Every method must produce an integral, nonnegative histogram with
	// exactly the public number of groups, plus a variance per group.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomHistForEst(r)
		gen := noise.New(seed)
		for _, m := range allMethods {
			res, err := Estimate(m, h, defaultParams(), gen)
			if err != nil {
				t.Logf("method %v: %v", m, err)
				return false
			}
			if res.Hist.Validate() != nil {
				t.Logf("method %v: invalid histogram %v", m, res.Hist)
				return false
			}
			if res.Hist.Groups() != h.Groups() {
				t.Logf("method %v: groups %d != %d", m, res.Hist.Groups(), h.Groups())
				return false
			}
			if int64(len(res.GroupVar)) != h.Groups() {
				t.Logf("method %v: len(GroupVar) = %d, want %d", m, len(res.GroupVar), h.Groups())
				return false
			}
			for _, v := range res.GroupVar {
				if v <= 0 {
					t.Logf("method %v: non-positive variance %f", m, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEstimateEmptyNode(t *testing.T) {
	gen := noise.New(1)
	for _, m := range allMethods {
		res, err := Estimate(m, histogram.Hist{}, defaultParams(), gen)
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if res.Hist.Groups() != 0 {
			t.Errorf("method %v: empty node produced %d groups", m, res.Hist.Groups())
		}
	}
}

func TestEstimateRejectsBadParams(t *testing.T) {
	gen := noise.New(1)
	h := histogram.Hist{0, 5}
	if _, err := Estimate(MethodHc, h, Params{Epsilon: 0, K: 10}, gen); err == nil {
		t.Error("epsilon 0 accepted")
	}
	if _, err := Estimate(MethodHc, h, Params{Epsilon: 1, K: 0}, gen); err == nil {
		t.Error("K 0 accepted")
	}
	// At these budgets exp(-1/scale) rounds to 1: every draw would be 0
	// and the estimate would be the true histogram.
	for _, eps := range []float64{1e-17, 1e-310, math.NaN()} {
		for _, m := range allMethods {
			if res, err := Estimate(m, h, Params{Epsilon: eps, K: 10}, gen); err == nil {
				t.Errorf("%v at epsilon %g: released %v", m, eps, res.Hist)
			}
			if _, err := EstimateRuns(m, h, Params{Epsilon: eps, K: 10}, gen); err == nil {
				t.Errorf("%v at epsilon %g: EstimateRuns accepted", m, eps)
			}
		}
	}
	if _, err := Estimate(MethodHc, h, Params{Epsilon: 1e-15, K: 10}, gen); err != nil {
		t.Errorf("epsilon 1e-15: %v", err)
	}
	if _, err := Estimate(Method(99), h, defaultParams(), gen); err == nil {
		t.Error("unknown method accepted")
	}
}

// emdOver averages the estimate error over several runs.
func emdOver(t *testing.T, m Method, h histogram.Hist, p Params, runs int) float64 {
	t.Helper()
	var total int64
	for i := 0; i < runs; i++ {
		gen := noise.New(int64(i + 1))
		res, err := Estimate(m, h, p, gen)
		if err != nil {
			t.Fatal(err)
		}
		total += histogram.EMD(h, res.Hist)
	}
	return float64(total) / float64(runs)
}

func TestHighEpsilonIsNearlyExact(t *testing.T) {
	h := histogram.Hist{0, 50, 30, 10, 0, 5}
	p := Params{Epsilon: 1000, K: 100}
	for _, m := range []Method{MethodHc, MethodHg, MethodHcL2} {
		if err := emdOver(t, m, h, p, 5); err > 1 {
			t.Errorf("method %v at eps=1000: error %f, want ~0", m, err)
		}
	}
}

func TestErrorDecreasesWithEpsilon(t *testing.T) {
	h := histogram.Hist{0, 200, 100, 50, 20, 10, 5}
	loose := emdOver(t, MethodHc, h, Params{Epsilon: 0.05, K: 100}, 10)
	tight := emdOver(t, MethodHc, h, Params{Epsilon: 2.0, K: 100}, 10)
	if tight >= loose {
		t.Errorf("error did not decrease with epsilon: eps=0.05 -> %f, eps=2 -> %f", loose, tight)
	}
}

func TestHcAndHgBeatNaive(t *testing.T) {
	// Section 6.2.1: the naive method is orders of magnitude worse.
	// Use a histogram with a long empty tail (K much larger than the
	// true max size), where the naive method hallucinates groups.
	h := histogram.Hist{0, 500, 300, 100, 20}
	p := Params{Epsilon: 1, K: 2000}
	naive := emdOver(t, MethodNaive, h, p, 5)
	hc := emdOver(t, MethodHc, h, p, 5)
	hg := emdOver(t, MethodHg, h, p, 5)
	if hc >= naive || hg >= naive {
		t.Errorf("naive (%f) should be much worse than Hc (%f) and Hg (%f)", naive, hc, hg)
	}
	if hc*10 >= naive {
		t.Errorf("naive (%f) should be at least 10x worse than Hc (%f)", naive, hc)
	}
}

func TestHcVarianceMatchesFormula(t *testing.T) {
	// All groups of the same estimated size share the variance
	// 4/(eps^2 * count of that size).
	h := histogram.Hist{0, 100, 50}
	gen := noise.New(3)
	res, err := Estimate(MethodHc, h, Params{Epsilon: 1, K: 50}, gen)
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.Hist.GroupSizes()
	for i, v := range res.GroupVar {
		count := res.Hist[sizes[i]]
		want := 4.0 / float64(count)
		if diff := v - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("group %d (size %d): variance %f, want %f", i, sizes[i], v, want)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodHc.String() != "Hc" || MethodHg.String() != "Hg" ||
		MethodNaive.String() != "Naive" || MethodHcL2.String() != "Hc(L2)" {
		t.Error("unexpected method names")
	}
	if Method(42).String() == "" {
		t.Error("unknown method should still stringify")
	}
}

func TestHgPreservesLargeGroups(t *testing.T) {
	// Section 4.2: the Hg method is very good at estimating large group
	// sizes. The largest estimated group should be close to the true
	// largest group.
	h := histogram.FromSizes([]int64{1, 1, 1, 2, 2, 3, 5000})
	var worst int64
	for i := 0; i < 10; i++ {
		gen := noise.New(int64(i))
		res, err := Estimate(MethodHg, h, Params{Epsilon: 1, K: 10000}, gen)
		if err != nil {
			t.Fatal(err)
		}
		sizes := res.Hist.GroupSizes()
		largest := sizes[len(sizes)-1]
		diff := largest - 5000
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	if worst > 50 {
		t.Errorf("largest-group estimate off by %d, want <= 50", worst)
	}
}
