package hcoc

import (
	"math/rand"
	"testing"
)

func smallGroups(seed int64, n int) []Group {
	r := rand.New(rand.NewSource(seed))
	states := []string{"CA", "OR", "WA"}
	out := make([]Group, n)
	for i := range out {
		out[i] = Group{
			Path: []string{states[r.Intn(len(states))], string(rune('a' + r.Intn(3)))},
			Size: int64(r.Intn(12)),
		}
	}
	return out
}

func TestPublicEndToEnd(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(1, 400))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
	if len(rel) != len(tree.Nodes()) {
		t.Errorf("released %d nodes, want %d", len(rel), len(tree.Nodes()))
	}
}

func TestPublicBottomUp(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(2, 300))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := ReleaseBottomUp(tree, Options{Epsilon: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
}

func TestPublicReleaseSingle(t *testing.T) {
	h := Histogram{0, 40, 25, 10, 0, 3}
	for _, m := range []Method{MethodHc, MethodHg, MethodNaive, MethodHcL2} {
		est, err := ReleaseSingle(h, m, Options{Epsilon: 1, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if est.Groups() != h.Groups() {
			t.Errorf("%v: groups %d, want %d", m, est.Groups(), h.Groups())
		}
		if est.Validate() != nil {
			t.Errorf("%v: invalid estimate", m)
		}
	}
	if _, err := ReleaseSingle(h, MethodHc, Options{}); err == nil {
		t.Error("zero epsilon accepted")
	}
	// At these budgets exp(-1/scale) rounds to 1, so every noise draw
	// would be 0 and the true histogram would be released.
	for _, eps := range []float64{1e-17, 1e-310} {
		for _, m := range []Method{MethodHc, MethodHg, MethodNaive, MethodHcL2} {
			if est, err := ReleaseSingle(Histogram{0, 5, 3, 2}, m, Options{Epsilon: eps}); err == nil {
				t.Errorf("%v at epsilon %g: released %v", m, eps, est)
			}
		}
	}
}

func TestPublicOptionsDefaults(t *testing.T) {
	// Methods, Merge, and K all default sensibly.
	tree, err := BuildHierarchy("US", smallGroups(3, 200))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Release(tree, Options{Epsilon: 2, Seed: 1, Methods: []Method{MethodHg}, Merge: MergeAverage})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tree, rel); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEMD(t *testing.T) {
	a := Histogram{0, 100}
	b := Histogram{0, 0, 100}
	if got := EMD(a, b); got != 100 {
		t.Errorf("EMD = %d, want 100", got)
	}
}

func TestPublicSyntheticWorkloads(t *testing.T) {
	for _, kind := range []DatasetKind{DatasetHousing, DatasetTaxi, DatasetRaceWhite, DatasetRaceHawaiian} {
		tree, err := SyntheticTree(kind, DatasetConfig{Seed: 4, Scale: 0.02})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tree.Root.G() == 0 {
			t.Fatalf("%v: empty workload", kind)
		}
		groups, err := SyntheticGroups(kind, DatasetConfig{Seed: 4, Scale: 0.02})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(groups) == 0 {
			t.Fatalf("%v: no groups", kind)
		}
	}
}

func TestReleaseDeterminism(t *testing.T) {
	tree, err := BuildHierarchy("US", smallGroups(5, 300))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Release(tree, Options{Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Release(tree, Options{Epsilon: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for path, h := range a {
		if !h.Equal(b[path]) {
			t.Fatalf("node %q differs under identical seeds", path)
		}
	}
	c, err := Release(tree, Options{Epsilon: 0.5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for path, h := range a {
		if !h.Equal(c[path]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical releases (suspicious)")
	}
}
