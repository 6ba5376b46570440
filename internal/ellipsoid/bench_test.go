package ellipsoid

import (
	"fmt"
	"math"
	"testing"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// hotDirection returns a unit probe with k equal nonzero entries at
// distinct random indices: the shape of a hashed one-hot impression
// (§V-C), whose 13 categorical fields set 13 of n coordinates.
func hotDirection(r *randx.RNG, n, k int) linalg.Vector {
	x := linalg.NewVector(n)
	w := 1 / math.Sqrt(float64(k))
	for _, i := range r.Perm(n)[:k] {
		x[i] = w
	}
	return x
}

// benchShape is one benchmarked dimension and probe shape: dense unit
// probes (hot = 0) or hot-sparse ones.
type benchShape struct{ n, hot int }

// benchShapes are the small dense cases plus the paper's two hashed
// dimensions (§V-C, n = 128 and 1024) with the impression workload's
// 13-hot probes.
var benchShapes = []benchShape{{4, 0}, {16, 0}, {64, 0}, {128, 13}, {1024, 13}}

func (s benchShape) String() string {
	if s.hot == 0 {
		return fmt.Sprintf("n=%d", s.n)
	}
	return fmt.Sprintf("n=%d,hot=%d", s.n, s.hot)
}

// benchDirections pre-generates k probe directions of the given shape so
// the measured loop touches only the ellipsoid.
func benchDirections(s benchShape, k int) []linalg.Vector {
	r := randx.New(1)
	dirs := make([]linalg.Vector, k)
	for i := range dirs {
		if s.hot > 0 {
			dirs[i] = hotDirection(r, s.n, s.hot)
		} else {
			dirs[i] = r.OnSphere(s.n)
		}
	}
	return dirs
}

// BenchmarkSupport measures the per-round value-bound probe — half of
// the pricing hot path. Must report 0 allocs/op.
func BenchmarkSupport(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.String(), func(b *testing.B) {
			e, err := NewBall(s.n, 4)
			if err != nil {
				b.Fatal(err)
			}
			dirs := benchDirections(s, 256)
			e.Support(dirs[0]) // warm the per-ellipsoid scratch
			var sink float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo, hi := e.Support(dirs[i%len(dirs)])
				sink += lo + hi
			}
			_ = sink
		})
	}
}

// BenchmarkCut measures the Löwner-John update — the other half of the
// hot path. Central cuts keep every iteration on the full update path;
// the ellipsoid is re-inflated periodically (outside the timer) so it
// never degenerates. Must report 0 allocs/op.
func BenchmarkCut(b *testing.B) {
	const resetEvery = 512
	for _, s := range benchShapes {
		b.Run(s.String(), func(b *testing.B) {
			e, err := NewBall(s.n, 4)
			if err != nil {
				b.Fatal(err)
			}
			dirs := benchDirections(s, resetEvery)
			// Warm the per-ellipsoid scratch before measuring.
			e.Cut(dirs[0], e.c.Dot(dirs[0]))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%resetEvery == 0 {
					b.StopTimer()
					fresh, err := NewBall(s.n, 4)
					if err != nil {
						b.Fatal(err)
					}
					fresh.scratch = e.scratch // keep the warmed scratch
					e = fresh
					b.StartTimer()
				}
				a := dirs[i%resetEvery]
				if res := e.Cut(a, e.c.Dot(a)); res != CutApplied {
					b.Fatalf("cut %d: %v", i, res)
				}
			}
		})
	}
}

// BenchmarkPriceRoundKernel chains Support and Cut the way one pricing
// round does: probe the value interval, then cut at the midpoint.
func BenchmarkPriceRoundKernel(b *testing.B) {
	const resetEvery = 512
	for _, s := range benchShapes {
		b.Run(s.String(), func(b *testing.B) {
			e, err := NewBall(s.n, 4)
			if err != nil {
				b.Fatal(err)
			}
			dirs := benchDirections(s, resetEvery)
			lo, hi := e.Support(dirs[0])
			e.Cut(dirs[0], (lo+hi)/2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%resetEvery == 0 {
					b.StopTimer()
					fresh, err := NewBall(s.n, 4)
					if err != nil {
						b.Fatal(err)
					}
					fresh.scratch, fresh.nz = e.scratch, e.nz
					e = fresh
					b.StartTimer()
				}
				a := dirs[i%resetEvery]
				lo, hi := e.Support(a)
				e.Cut(a, (lo+hi)/2)
			}
		})
	}
}
