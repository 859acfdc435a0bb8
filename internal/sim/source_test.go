package sim

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// sourceSeeds are the seeds math/rand's seeding rules treat specially
// (0, the modulus and its neighbours, the 0 → 89482311 substitute, both
// int64 extremes) plus 200 drawn ones.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, mersenne, -mersenne, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// compareStreams makes the same sequence of rand.Rand calls on
// rand.NewSource(seed) and NewSource(seed), re-seeding both with seed+1
// before call reseedAt (never when negative), and reports the first call
// where they part. Eight calls take about 12 draws.
func compareStreams(t *testing.T, seed int64, draws, reseedAt int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := rand.New(NewSource(seed))
	for d := 0; d < draws; d++ {
		if d == reseedAt {
			want.Seed(seed + 1)
			got.Seed(seed + 1)
		}
		var w, g any
		switch op := d % 8; op {
		case 0:
			w, g = want.Int63(), got.Int63()
		case 1:
			w, g = want.Uint64(), got.Uint64()
		case 2:
			w, g = want.Float64(), got.Float64()
		case 3:
			w, g = want.Intn(1000003), got.Intn(1000003)
		case 4:
			w, g = want.ExpFloat64(), got.ExpFloat64()
		case 5:
			w, g = want.NormFloat64(), got.NormFloat64()
		case 6:
			w, g = want.Perm(5), got.Perm(5)
		default:
			w, g = want.Int31n(7), got.Int31n(7)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d, reseed at %d: call %d = %v, math/rand gives %v", seed, reseedAt, d, g, w)
		}
	}
}

// TestSourceMatchesMathRand holds Source to rand.NewSource: 3000 calls
// per seed cross the first draw that reads a written word (273) and the
// register's wrap (607), and re-seeding at calls 0, 100, 273 and 1000
// (before any draw, before the spill, after it and past the wrap)
// restarts both streams alike.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds() {
		compareStreams(t, seed, 3000, -1)
	}
	for _, seed := range []int64{0, 1, -7, math.MinInt64, 123456789} {
		for _, at := range []int{0, 100, 273, 1000} {
			compareStreams(t, seed, 3000, at)
		}
	}
}

func FuzzSource(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(65535))
	f.Add(int64(0), uint16(700), uint16(273))
	f.Add(int64(math.MinInt64), uint16(1300), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, draws, reseedAt uint16) {
		compareStreams(t, seed, int(draws%4096), int(reseedAt))
	})
}

// sourceSink keeps BenchmarkSource's draws live.
var sourceSink uint64

// BenchmarkSource times seeding plus 16 and plus 4096 draws of Source
// beside math/rand's own source.
func BenchmarkSource(b *testing.B) {
	for _, draws := range []int{16, 4096} {
		for _, c := range []struct {
			name string
			src  func(int64) rand.Source64
		}{
			{"sim", func(s int64) rand.Source64 { return NewSource(s) }},
			{"math-rand", func(s int64) rand.Source64 { return rand.NewSource(s).(rand.Source64) }},
		} {
			b.Run(c.name+"/draws="+strconv.Itoa(draws), func(b *testing.B) {
				b.ReportAllocs()
				var sum uint64
				for i := 0; i < b.N; i++ {
					src := c.src(int64(i))
					for d := 0; d < draws; d++ {
						sum += src.Uint64()
					}
				}
				sourceSink = sum
			})
		}
	}
}
