package detrand

import "math"

// Counter-based (stateless) random draws. Unlike Source, which owns a
// sequential stream whose values depend on how many draws preceded them,
// these derive each value purely from the identity of the event that needs
// it — hash(seed, counters...). Consumers that process events in different
// orders therefore see bit-identical values: the sparse medium's fading and
// decode draws and every node's clock-drift decisions are these hashes, so
// its results do not depend on the order its listeners are resolved in,
// and every sparse pin is a function of them. The mixer is the splitmix64
// finalizer, whose avalanche behaviour makes adjacent counter values
// statistically independent.

const gamma = 0x9E3779B97F4A7C15 // splitmix64 increment (golden ratio)

// mix64 is the splitmix64 output permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Mix folds one word into a running hash. Start from a seed (any value,
// including 0) and fold each identifying counter in a fixed order.
func Mix(h, v uint64) uint64 {
	return mix64(h ^ (v+gamma)*0x2545F4914F6CDD1D)
}

// Hash3 hashes a seed and three identifying words — the common shape for
// per-(slot, src, dst) draws.
func Hash3(seed uint64, a, b, c uint64) uint64 {
	return Mix(Mix(Mix(mix64(seed+gamma), a), b), c)
}

// Uniform maps a hash to a float64 uniform on (0, 1]; the open lower bound
// makes it safe as the log argument in Box-Muller.
func Uniform(h uint64) float64 {
	return (float64(h>>11) + 1) / (1 << 53)
}

// Norm maps a hash to one standard normal deviate via Box-Muller over two
// words derived from it. Deterministic in h alone.
func Norm(h uint64) float64 { return NormAt(h, NormU1(h)) }

// NormU1 is the first of Norm's two uniforms, the one its radius
// sqrt(-2 ln u1) depends on: |Norm(h)| never exceeds that radius, so a
// caller that only needs to know whether Norm(h) can reach some t > 0 has
// its answer, without a logarithm, whenever u1 > exp(-t²/2).
func NormU1(h uint64) float64 { return Uniform(mix64(h + gamma)) }

// NormAt is Norm(h) given u1 = NormU1(h), bit for bit.
func NormAt(h uint64, u1 float64) float64 {
	u2 := Uniform(mix64(h + gamma + gamma))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
