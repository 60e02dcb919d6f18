package detrand

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// The source must not perturb the value stream: it yields the same
// rand.Rand outputs as rand.NewSource.
func TestStreamIdentical(t *testing.T) {
	plain := rand.New(rand.NewSource(42))
	counted := rand.New(New(42))
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if a, b := plain.Int63(), counted.Int63(); a != b {
				t.Fatalf("Int63 diverged at %d: %d vs %d", i, a, b)
			}
		case 1:
			if a, b := plain.Float64(), counted.Float64(); a != b {
				t.Fatalf("Float64 diverged at %d: %v vs %v", i, a, b)
			}
		case 2:
			if a, b := plain.NormFloat64(), counted.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 diverged at %d: %v vs %v", i, a, b)
			}
		case 3:
			if a, b := plain.Intn(17), counted.Intn(17); a != b {
				t.Fatalf("Intn diverged at %d: %d vs %d", i, a, b)
			}
		}
	}
}

// requireStream compares the next n raw outputs of s with ref's.
func requireStream(t *testing.T, what string, s *Source, ref rand.Source64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := ref.Uint64(), s.Uint64(); a != b {
			t.Fatalf("%s: output %d is %#x, math/rand's %#x", what, i, b, a)
		}
	}
}

// TestEdgeSeeds: the seeds math/rand's reduction treats specially — zero
// and the multiples of 2³¹−1 (both seed 89482311), negatives, and seeds
// past 31 bits — give math/rand's stream, across the 273-, 334- and
// 607-draw seams.
func TestEdgeSeeds(t *testing.T) {
	for _, seed := range []int64{
		0, -1, 1, int32max, -int32max, 2 * int32max, 7 * int32max, int32max - 1, int32max + 1,
		seedZero, 1 << 50, -1 << 50, math.MaxInt64, math.MinInt64,
	} {
		requireStream(t, "seed "+strconv.FormatInt(seed, 10), New(seed), rand.NewSource(seed).(rand.Source64), 2000)
	}
}

// TestResetAtSeams: Reset(d) positions a stream where an uninterrupted one
// is after d draws, from a fresh source and from one that has run past d,
// at every seam of the lazy seeding.
func TestResetAtSeams(t *testing.T) {
	for _, d := range []uint64{0, 1, 272, 273, 274, 333, 334, 606, 607, 608, 5000} {
		ref := rand.NewSource(99).(rand.Source64)
		for i := uint64(0); i < d; i++ {
			ref.Uint64()
		}
		want := make([]uint64, 700)
		for i := range want {
			want[i] = ref.Uint64()
		}
		fresh, used := New(99), New(99)
		for i := 0; i < 1234; i++ {
			used.Uint64()
		}
		for name, s := range map[string]*Source{"fresh": fresh, "used": used} {
			s.Reset(d)
			if s.Draws() != d {
				t.Fatalf("%s Reset(%d): Draws() = %d", name, d, s.Draws())
			}
			for i, w := range want {
				if got := s.Uint64(); got != w {
					t.Fatalf("%s Reset(%d): output %d is %#x, want %#x", name, d, i, got, w)
				}
			}
		}
	}
}

// Reset(draws) must position a stream exactly where an uninterrupted one
// would be, through the full rand.Rand API.
func TestResetFastForward(t *testing.T) {
	src := New(7)
	r := rand.New(src)
	for i := 0; i < 500; i++ {
		r.NormFloat64()
		r.Intn(100)
	}
	mark := src.Draws()
	want := make([]float64, 50)
	for i := range want {
		want[i] = r.Float64()
	}

	resumedSrc := New(7)
	resumedSrc.Reset(mark)
	resumed := rand.New(resumedSrc)
	for i := range want {
		if got := resumed.Float64(); got != want[i] {
			t.Fatalf("resumed stream diverged at draw %d: %v vs %v", i, got, want[i])
		}
	}
	if resumedSrc.Draws() != mark+50 {
		t.Fatalf("draw counter after resume: %d, want %d", resumedSrc.Draws(), mark+50)
	}
}

func TestSeedRestarts(t *testing.T) {
	s := New(3)
	r := rand.New(s)
	first := r.Int63()
	s.Seed(3)
	if s.Draws() != 0 {
		t.Fatalf("Seed must zero the counter, got %d", s.Draws())
	}
	if again := rand.New(s).Int63(); again != first {
		t.Fatalf("reseeded stream differs: %d vs %d", again, first)
	}
}

var sink *Source

// TestSourceMemory: New allocates the Source and nothing else — no
// 607-word register — and a source that has made k draws keeps at most
// min(k, 607) outputs plus one growth step.
func TestSourceMemory(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { sink = New(12345) }); allocs != 1 {
		t.Fatalf("New makes %v allocations, want 1", allocs)
	}
	const n = 1000
	keep := make([]*Source, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 128 {
		t.Fatalf("New retains %d bytes per source, want at most 128", per)
	}
	runtime.KeepAlive(keep)

	for _, k := range []int{0, 1, 19, 64, 65, 222, 333, 600, 606, 607, 608, 5000} {
		s := New(int64(k))
		for i := 0; i < k; i++ {
			s.Uint64()
		}
		held, bound := 8*cap(s.out), 8*(min(k, rngLen)+grow)
		if held > bound {
			t.Fatalf("after %d draws the source holds %d bytes of outputs, want at most %d", k, held, bound)
		}
	}
}

// FuzzStreamIdentical drives a Source and a math/rand source through the
// same mix of rand.Rand calls and reseeds and requires equal values. Each
// op byte picks a call (low three bits) and a repeat count (high five), so
// short inputs cross the 607-draw seam.
func FuzzStreamIdentical(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-1), []byte{0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd, 0xff, 0xf8, 0xf9, 0xfa})
	f.Add(int64(int32max), []byte{0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9, 0xf9})
	f.Add(int64(1)<<50, []byte{0x13, 0x27, 0x3f, 0x42})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		ref := rand.New(rand.NewSource(seed))
		src := New(seed)
		got := rand.New(src)
		for i, op := range ops {
			for rep := 0; rep <= int(op>>3); rep++ {
				var a, b any
				switch op & 7 {
				case 0:
					a, b = ref.Int63(), got.Int63()
				case 1:
					a, b = ref.Uint64(), got.Uint64()
				case 2:
					a, b = ref.Float64(), got.Float64()
				case 3:
					a, b = ref.NormFloat64(), got.NormFloat64()
				case 4:
					a, b = ref.Intn(rep+1), got.Intn(rep+1)
				case 5:
					a, b = ref.Intn(1<<40+rep), got.Intn(1<<40+rep)
				case 6:
					a, b = ref.ExpFloat64(), got.ExpFloat64()
				case 7:
					seed = seed*6364136223846793005 + int64(op)
					ref.Seed(seed)
					got.Seed(seed)
					a, b = src.Draws(), uint64(0)
				}
				if a != b {
					t.Fatalf("op %d (%#x) repeat %d: math/rand gives %v, Source %v", i, op, rep, a, b)
				}
			}
		}
	})
}

// BenchmarkNew is the cost of a fresh source, beside math/rand's.
func BenchmarkNew(b *testing.B) {
	b.Run("detrand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = New(int64(i))
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		var s rand.Source
		for i := 0; i < b.N; i++ {
			s = rand.NewSource(int64(i))
		}
		_ = s
	})
}

// BenchmarkNormFloat64 is the steady-state draw, past the 607-draw seam,
// through rand.Rand, beside math/rand's.
func BenchmarkNormFloat64(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"detrand", New(1)}, {"math-rand", rand.NewSource(1)}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			for i := 0; i < 1000; i++ {
				r.NormFloat64()
			}
			b.ResetTimer()
			var acc float64
			for i := 0; i < b.N; i++ {
				acc += r.NormFloat64()
			}
			_ = acc
		})
	}
}
