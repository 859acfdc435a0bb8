package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkLadder4 runs Ladder4, the AVX2 body on a CPU that has AVX2, and the
// Go loop on the same row and demands the same ok and, when ok, the same
// levels and level set, and that Ladder4 writes nothing past len(src).
func checkLadder4(t *testing.T, name string, src []float32, bias, sign float32, th [4]float32) {
	t.Helper()
	const sentinel = 0xa5
	got := make([]uint8, len(src)+8)
	for i := range got {
		got[i] = sentinel
	}
	want := make([]uint8, len(src))
	gp, gok := Ladder4(got, src, bias, sign, th)
	wp, wok := ladder4Go(want, src, bias, sign, &th)
	if gok != wok {
		t.Fatalf("%s: Ladder4 ok=%v, Go loop ok=%v on %v", name, gok, wok, src)
	}
	if wok && (gp != wp || !slices.Equal(got[:len(src)], want)) {
		t.Fatalf("%s: Ladder4 levels %v set %b, Go loop %v set %b", name, got[:len(src)], gp, want, wp)
	}
	for _, v := range got[len(src):] {
		if v != sentinel {
			t.Fatalf("%s: Ladder4 wrote past its row: %v", name, got[len(src):])
		}
	}
}

// TestLadder4Kernels compares the two bodies of the threshold count on
// rows of 0 to 67 elements, so every tail length after the 8-wide blocks
// is reached: random values around the thresholds, values equal to each
// threshold after the bias, ±0 against thresholds of ±0, sign −1, and a
// NaN, +Inf or −Inf, or a finite value whose sum with the bias overflows,
// at every position of the row.
func TestLadder4Kernels(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ladders := [][4]float32{
		{0.25, 0.75, 1.25, 1.75},
		{-1.5, -0.5, 0.5, 1.5},
		{0, 0, 1, 1},
		{float32(math.Copysign(0, -1)), 0, 0.5, 2},
		{1.75, 0.25, 1.25, 0.75}, // unsorted: a count, not a search
	}
	for n := 0; n <= 67; n++ {
		for li, th := range ladders {
			for _, sign := range []float32{1, -1} {
				for _, bias := range []float32{0, 0.125, -0.3} {
					name := fmt.Sprintf("n=%d ladder=%d sign=%v bias=%v", n, li, sign, bias)
					src := make([]float32, n)
					for i := range src {
						src[i] = float32(rng.NormFloat64())
					}
					checkLadder4(t, name+" random", src, bias, sign, th)
					for i := range src {
						switch tk := sign * th[rng.Intn(4)]; i % 3 {
						case 0:
							src[i] = tk - bias // lands on the threshold when exact
						case 1:
							src[i] = float32(math.Copysign(0, float64(rng.Intn(2)-1)))
						default:
							src[i] = math.Nextafter32(tk-bias, float32(math.Inf(rng.Intn(2)*2-1)))
						}
					}
					checkLadder4(t, name+" thresholds", src, bias, sign, th)
				}
			}
		}
		for p := 0; p < n; p++ {
			for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32} {
				src := make([]float32, n)
				for i := range src {
					src[i] = float32(rng.NormFloat64())
				}
				src[p] = bad
				checkLadder4(t, fmt.Sprintf("n=%d %v at %d", n, bad, p), src, math.MaxFloat32/2, 1, ladders[0])
			}
		}
	}
}

// TestLadder4Levels pins Ladder4 to its definition on a row that holds
// every level: the count of thresholds at or below sign·(v+bias).
func TestLadder4Levels(t *testing.T) {
	th := [4]float32{-1, 0, 1, 2}
	src := []float32{-3, -1, -0.5, 0, 0.5, 1, 1.5, 2, 7, -2}
	want := []uint8{0, 1, 1, 2, 2, 3, 3, 4, 4, 0}
	dst := make([]uint8, len(src))
	present, ok := Ladder4(dst, src, 0, 1, th)
	if !ok || present != 0b11111 || !slices.Equal(dst, want) {
		t.Fatalf("Ladder4 = %v set %b ok %v, want %v set 11111", dst, present, ok, want)
	}
	// sign −1 counts the negated sum: −(v + 1).
	present, ok = Ladder4(dst, src, 1, -1, th)
	wantNeg := []uint8{4, 2, 1, 1, 0, 0, 0, 0, 0, 3}
	if !ok || present != 0b11111 || !slices.Equal(dst, wantNeg) {
		t.Fatalf("Ladder4 sign −1 = %v set %b ok %v, want %v", dst, present, ok, wantNeg)
	}
}

// BenchmarkLadder4 times the two bodies on conv0's row of 900 columns
// (30×30), per element.
func BenchmarkLadder4(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	src := make([]float32, 900)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]uint8, len(src))
	th := [4]float32{-0.5, 0, 0.5, 1}
	for _, k := range []struct {
		name string
		run  func(dst []uint8, src []float32, bias, sign float32, th *[4]float32) (uint64, bool)
	}{{"ladder4", ladder4}, {"go", ladder4Go}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				k.run(dst, src, 0.1, 1, &th)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
		})
	}
}
