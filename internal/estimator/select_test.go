package estimator

import (
	"testing"

	"hcoc/internal/dataset"
	"hcoc/internal/noise"
)

func TestChooseMethodOnPaperWorkloads(t *testing.T) {
	// The paper's guidance: Hc for dense data (white, taxi, hawaiian),
	// Hg for the sparse housing data with its long outlier gaps.
	want := map[dataset.Kind]Method{
		dataset.Housing:      MethodHg,
		dataset.RaceWhite:    MethodHc,
		dataset.RaceHawaiian: MethodHc,
		dataset.Taxi:         MethodHc,
	}
	for kind, wantMethod := range want {
		tree, err := dataset.Tree(kind, dataset.Config{Seed: 2, Scale: 0.2, Levels: 2})
		if err != nil {
			t.Fatal(err)
		}
		// At a healthy selection budget the choice should be stable
		// across seeds.
		agree := 0
		const trials = 20
		for seed := int64(0); seed < trials; seed++ {
			got, err := ChooseMethod(tree.Root.Hist, 0.5, noise.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if got == wantMethod {
				agree++
			}
		}
		if agree < trials*9/10 {
			t.Errorf("%v: chose %v only %d/%d times", kind, wantMethod, agree, trials)
		}
	}
}

func TestChooseMethodEdgeCases(t *testing.T) {
	gen := noise.New(1)
	for _, eps := range []float64{0, 1e-17, 1e-310} {
		if _, err := ChooseMethod(nil, eps, gen); err == nil {
			t.Errorf("epsilon %g accepted", eps)
		}
	}
	// Empty data must still return a valid method, not crash.
	m, err := ChooseMethod(nil, 1, gen)
	if err != nil {
		t.Fatal(err)
	}
	if m != MethodHc && m != MethodHg {
		t.Errorf("unexpected method %v", m)
	}
}
