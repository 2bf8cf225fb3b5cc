package noise

import (
	"math"
	"math/rand"
)

// Gen wraps a seeded random source with the two mechanisms used in the
// paper. A Gen is not safe for concurrent use; create one per goroutine.
type Gen struct {
	r *rand.Rand
	// scale, alpha and logAlpha cache the double-geometric constants
	// alpha = exp(-1/scale) and log(alpha) for the last scale
	// DoubleGeometric saw; callers draw whole vectors at one scale.
	// scale is NaN until the first draw, so the first call always
	// validates.
	scale, alpha, logAlpha float64
}

// New returns a generator seeded with the given seed.
func New(seed int64) *Gen {
	return NewFrom(rand.New(rand.NewSource(seed)))
}

// NewFrom returns a generator that draws from an existing *rand.Rand.
func NewFrom(r *rand.Rand) *Gen {
	return &Gen{r: r, scale: math.NaN()}
}

// Reseed restarts the generator's stream at seed: afterwards it draws
// exactly what New(seed) would, without allocating a new source. On a
// Gen built by NewFrom it reseeds the caller's *rand.Rand.
func (g *Gen) Reseed(seed int64) {
	g.r.Seed(seed) // also resets the Rand's buffered Int63 bits
}

// Rand exposes the underlying random source, for callers that need
// auxiliary randomness (e.g. tie-breaking) tied to the same seed.
func (g *Gen) Rand() *rand.Rand { return g.r }

// ScaleOK reports whether DoubleGeometric accepts scale: positive and
// small enough that alpha = exp(-1/scale) stays below 1. Past about
// 1.8e16, and at +Inf, alpha rounds to 1, log(alpha) is 0 and every
// draw would come out 0 — the input would be released unperturbed.
func ScaleOK(scale float64) bool {
	return scale > 0 && math.Exp(-1/scale) < 1
}

// DoubleGeometric samples integer noise from the double-geometric
// distribution with the given scale (scale = sensitivity/epsilon):
//
//	P(X = k) = (1-a)/(1+a) * a^|k|,  a = exp(-1/scale)
//
// This is the distribution of Definition 3 in the paper. It is sampled
// as the difference of two independent geometric variates, which keeps
// the output exactly integral. Each geometric variate is
// floor(log(U)/log(a)) by inversion, U in (0, 1] — the number of
// failures before the first success of a Bernoulli(1-a) process. When
// a underflows to 0 (a tiny scale) both variates are 0 and no uniform
// is drawn. It panics unless ScaleOK(scale).
func (g *Gen) DoubleGeometric(scale float64) int64 {
	if scale != g.scale {
		g.setScale(scale)
	}
	if g.alpha <= 0 {
		return 0
	}
	pos := int64(math.Floor(math.Log(1-g.r.Float64()) / g.logAlpha))
	return pos - int64(math.Floor(math.Log(1-g.r.Float64())/g.logAlpha))
}

// setScale validates scale and caches its sampler constants.
func (g *Gen) setScale(scale float64) {
	if !ScaleOK(scale) {
		panic("noise: scale must be positive, with exp(-1/scale) < 1")
	}
	alpha := math.Exp(-1 / scale)
	g.scale, g.alpha, g.logAlpha = scale, alpha, math.Log(alpha)
}

// Laplace samples real-valued noise from the Laplace distribution with
// the given scale (scale = sensitivity/epsilon).
func (g *Gen) Laplace(scale float64) float64 {
	if scale <= 0 {
		panic("noise: scale must be positive")
	}
	u := g.r.Float64() - 0.5
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// AddDoubleGeometric returns a copy of xs with independent
// double-geometric noise of the given scale added to every cell.
func (g *Gen) AddDoubleGeometric(xs []int64, scale float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x + g.DoubleGeometric(scale)
	}
	return out
}

// AddLaplace returns xs (converted to float64) with independent Laplace
// noise of the given scale added to every cell.
func (g *Gen) AddLaplace(xs []int64, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) + g.Laplace(scale)
	}
	return out
}

// DoubleGeometricVariance returns the variance of the double-geometric
// distribution with the given scale: 2a/(1-a)^2 with a = exp(-1/scale).
// For moderate scales it is close to the Laplace variance 2*scale^2, and
// the paper's variance estimates use the Laplace approximation.
func DoubleGeometricVariance(scale float64) float64 {
	a := math.Exp(-1 / scale)
	return 2 * a / ((1 - a) * (1 - a))
}

// LaplaceVariance returns the variance of the Laplace distribution with
// the given scale: 2*scale^2. The paper uses this as the approximation
// for the double-geometric variance in Section 5.1.
func LaplaceVariance(scale float64) float64 {
	return 2 * scale * scale
}
