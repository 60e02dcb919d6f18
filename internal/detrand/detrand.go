// Package detrand wraps math/rand's seeded source with a draw counter,
// making RNG streams checkpointable. Every stateful component of the
// simulator draws from a source created here; because the wrapper forwards
// each call 1:1 to the underlying generator, the value stream is
// bit-identical to using rand.NewSource directly — existing golden and
// determinism tests are unaffected. A stream's position is then fully
// described by (seed, draws): restoring is reseeding a fresh source and
// fast-forwarding it the counted number of steps.
package detrand

import "math/rand"

// Source is a counting rand.Source64. It is not safe for concurrent use,
// matching the sources it wraps.
type Source struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a counting source seeded like rand.NewSource(seed).
func New(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source. One call advances the underlying
// generator exactly one step.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64. One call advances the underlying
// generator exactly one step — the same step Int63 takes, so the draw
// counter measures generator position regardless of which method mix
// consumed the stream.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source: it restarts the stream and zeroes the
// counter.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Draws returns how many generator steps have been consumed since the
// last (re)seed.
func (s *Source) Draws() uint64 { return s.draws }

// Reset reseeds the source from its remembered seed and fast-forwards it
// to the given draw count, so the next value drawn is exactly the one an
// uninterrupted stream would produce.
func (s *Source) Reset(draws uint64) {
	s.src.Seed(s.seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}
