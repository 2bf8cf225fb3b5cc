// Package noise implements the privacy primitives of Section 3.2: the
// geometric mechanism (double-geometric / two-sided geometric noise,
// which is integer-valued) and the Laplace mechanism (used only by the
// non-private "omniscient" baseline in the evaluation).
//
// All samplers draw from an explicit *rand.Rand so that experiments are
// reproducible under a fixed seed. The double-geometric sampler refuses
// a scale so large that its noise would round to zero (ScaleOK), since
// that would release the input exactly.
package noise
