// Package detrand owns the simulator's seeded generator: a counting
// rand.Source64 whose value stream is math/rand's rand.NewSource stream,
// bit for bit, so every golden and determinism test reads the same values
// it always has. Every stateful component of the simulator draws from a
// source created here. A stream's position is fully described by
// (seed, draws): restoring is reseeding and fast-forwarding the counted
// number of steps.
//
// math/rand seeds its additive lagged-Fibonacci register (607 words, tap
// 273) with 1 841 steps of a Lehmer generator and XORs in a table of
// "cooked" constants — 4.9 KB of state and 12–24 µs per source on a
// 2-vCPU host, whether the source then makes 19 draws or a million.
// Source computes the same stream lazily instead:
//
//   - Seeding word i is three Lehmer states, each a closed form
//     seed·48271^m mod (2³¹−1) taken from a precomputed power table, XORed
//     with cooked[i]; it is computed only when a draw reads it.
//   - Output j < 273 is init[333−j] + init[606−j]. After that, output j is
//     F_j + out[j−273], where F_j is init[333−j] through draw 333,
//     init[940−j] through draw 606, and out[j−607] from then on. So the
//     kept outputs grow with the draws made, up to 607 words, and from
//     then on each draw is math/rand's own two-index add on them.
//
// The cooked constants are not copied into this package: init derives
// them from the first 607 outputs of the installed math/rand, inverting
// the relations above. Reseeding and fast-forwarding is therefore cheap:
// a source that has made k draws costs k additions to rebuild.
package detrand

import "math/rand"

const (
	rngLen   = 607 // math/rand's register length
	rngTap   = 273 // its tap distance
	rngFeed  = rngLen - rngTap
	int32max = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	seedZero = 89482311  // what math/rand seeds in place of a zero seed
	grow     = 64        // the most words the kept outputs grow by at once
)

var (
	// seedPow[i] holds 48271^m mod (2³¹−1) for the three Lehmer steps
	// m = 21+3i, 22+3i, 23+3i that math/rand's seeding reads for word i.
	seedPow [rngLen][3]uint64
	// cooked is math/rand's rngCooked table, derived in init.
	cooked [rngLen]uint64
)

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2], by folding the
// 62-bit product on the Mersenne modulus: no division.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

func init() {
	x := uint64(1)
	for m := 1; m <= 20+3*rngLen; m++ {
		x = mulMod(x, 48271)
		if m > 20 {
			seedPow[(m-21)/3][(m-21)%3] = x
		}
	}
	// Invert the first 607 outputs of a math/rand source to its initial
	// register, then XOR away the Lehmer part to leave the cooked table.
	ref := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]uint64
	for j := range out {
		out[j] = ref.Uint64()
	}
	for j := rngTap; j < rngLen; j++ {
		f := out[j] - out[j-rngTap]
		if j <= rngFeed-1 {
			v[rngFeed-1-j] = f
		} else {
			v[rngLen+rngFeed-1-j] = f
		}
	}
	for j := 0; j < rngTap; j++ {
		v[rngFeed-1-j] = out[j] - v[rngLen-1-j]
	}
	for i := range v {
		cooked[i] = v[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is math/rand's seeding word i before cooking, for a reduced
// seed x in [1, 2³¹−2].
func lehmerWord(x uint64, i int) uint64 {
	p := &seedPow[i]
	return mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
}

// reduce maps a seed to the Lehmer state math/rand starts from.
func reduce(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	return uint64(seed)
}

// Source is a counting rand.Source64. It is not safe for concurrent use,
// matching the math/rand sources whose stream it reproduces.
type Source struct {
	x     uint64 // the seed, reduced: all of it the stream depends on
	draws uint64
	// out holds outputs 0..draws−1 while fewer than 607 draws have been
	// made. From then on ring is the same storage as the full register,
	// and feed and tap index the words the next draw adds.
	out       []uint64
	ring      *[rngLen]uint64
	feed, tap int
}

var _ rand.Source64 = (*Source)(nil)

// New returns a counting source whose stream is rand.NewSource(seed)'s.
// It allocates nothing but the Source itself until the first draw.
func New(seed int64) *Source {
	return &Source{x: reduce(seed)}
}

// Int63 implements rand.Source. One call advances the generator exactly
// one step.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 implements rand.Source64. One call advances the generator exactly
// one step — the same step Int63 takes, so the draw counter measures
// generator position regardless of which method mix consumed the stream.
func (s *Source) Uint64() uint64 {
	s.draws++
	r := s.ring
	if r == nil {
		return s.early()
	}
	f, t := s.feed, s.tap
	x := r[f] + r[t]
	r[f] = x
	if f++; f == rngLen {
		f = 0
	}
	if t++; t == rngLen {
		t = 0
	}
	s.feed, s.tap = f, t
	return x
}

// early makes draw j = len(s.out) < 607 from the seeding words it reads
// and the outputs kept so far, and keeps it.
func (s *Source) early() uint64 {
	j := len(s.out)
	var f, t uint64
	switch {
	case j < rngTap:
		f, t = s.word(rngFeed-1-j), s.word(rngLen-1-j)
	case j < rngFeed:
		f, t = s.word(rngFeed-1-j), s.out[j-rngTap]
	default:
		f, t = s.word(rngLen+rngFeed-1-j), s.out[j-rngTap]
	}
	x := f + t
	if j == cap(s.out) {
		s.out = append(make([]uint64, 0, min(max(2*j, 8), j+grow, rngLen)), s.out...)
	}
	s.out = append(s.out, x)
	if j+1 == rngLen {
		// Draw 607 adds out[0] and out[334], and each later draw the pair
		// one word on: math/rand's register, indexed forwards.
		s.ring, s.feed, s.tap = (*[rngLen]uint64)(s.out), 0, rngFeed
	}
	return x
}

// word is the seeding word i of this source's seed, cooked.
func (s *Source) word(i int) uint64 {
	return lehmerWord(s.x, i) ^ cooked[i]
}

// Seed implements rand.Source: it restarts the stream and zeroes the
// counter.
func (s *Source) Seed(seed int64) {
	s.x = reduce(seed)
	s.Reset(0)
}

// Draws returns how many generator steps have been consumed since the
// last (re)seed.
func (s *Source) Draws() uint64 { return s.draws }

// Reset restarts the stream from its remembered seed and fast-forwards it
// to the given draw count, so the next value drawn is exactly the one an
// uninterrupted stream would produce. The kept outputs' storage is reused.
func (s *Source) Reset(draws uint64) {
	s.out, s.ring = s.out[:0], nil
	s.draws = 0
	for s.draws < draws {
		s.Uint64()
	}
}
