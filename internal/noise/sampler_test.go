package noise

import (
	"math"
	"math/rand"
	"testing"
)

// refDoubleGeometric is the sampler without cached constants: Exp and
// both Logs are recomputed on every draw. DoubleGeometric must draw
// exactly this stream.
func refDoubleGeometric(r *rand.Rand, scale float64) int64 {
	alpha := math.Exp(-1 / scale)
	geometric := func() int64 {
		if alpha <= 0 {
			return 0
		}
		u := 1 - r.Float64()
		return int64(math.Floor(math.Log(u) / math.Log(alpha)))
	}
	return geometric() - geometric()
}

// pinScales alternates the way callers switch scales: ChooseMethod's two
// probes (4/eps, 2/eps), per-level Hc vectors, a fractional scale, and
// 1e-3, where alpha underflows to 0 and no uniform is drawn.
var pinScales = []float64{4, 2, 3, 3, 1e-3, 0.7, 1e-3, 3, 1e15}

func TestDoubleGeometricMatchesUncachedReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		g := New(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			scale := pinScales[(i*7+int(seed))%len(pinScales)]
			if got, want := g.DoubleGeometric(scale), refDoubleGeometric(ref, scale); got != want {
				t.Fatalf("seed %d draw %d (scale %g): got %d, want %d", seed, i, scale, got, want)
			}
		}
	}
}

func TestReseedEqualsNew(t *testing.T) {
	g := New(1)
	for seed := int64(0); seed < 100; seed++ {
		// Leave the generator mid-stream, with buffered Read bytes and a
		// cached scale, before reseeding.
		for i := 0; i < int(seed%13); i++ {
			g.DoubleGeometric(pinScales[i%len(pinScales)])
		}
		var junk [3]byte
		_, _ = g.Rand().Read(junk[:])

		g.Reseed(seed)
		fresh := New(seed)
		for i := 0; i < 200; i++ {
			scale := pinScales[i%len(pinScales)]
			if got, want := g.DoubleGeometric(scale), fresh.DoubleGeometric(scale); got != want {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", seed, i, got, want)
			}
		}
		var a, b [5]byte
		_, _ = g.Rand().Read(a[:])
		_, _ = fresh.Rand().Read(b[:])
		if a != b {
			t.Fatalf("seed %d: Read after reseed %v, fresh %v", seed, a, b)
		}
	}
}
