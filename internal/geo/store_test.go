package geo

import (
	"math/rand"
	"testing"
)

func randomCity(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		// A ~city-sized box around a mid-latitude center, with a few
		// clusters so the grid sees non-uniform density.
		cx := 48.8 + rng.Float64()*0.02
		cy := 2.3 + rng.Float64()*0.02
		if rng.Intn(3) == 0 {
			cx += 0.15
			cy -= 0.1
		}
		pts[i] = Point{Lat: cx + rng.NormFloat64()*0.01, Lon: cy + rng.NormFloat64()*0.01}
	}
	return pts
}

// TestNewDistStoreTiers pins representation selection by catalog size:
// the float32 matrix up to the matrix cap, exact per-call Haversine
// beyond it at every size.
func TestNewDistStoreTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, ok := NewDistStore(randomCity(rng, 50), 0).(*DistMatrix); !ok {
		t.Error("small catalog should use the exact matrix")
	}
	if _, ok := NewDistStore(randomCity(rng, 50), 10).(HaversineStore); !ok {
		t.Error("catalog above an explicit matrix cap should use per-call Haversine")
	}
	if _, ok := NewDistStore(randomCity(rng, 8192), 0).(HaversineStore); !ok {
		t.Error("catalog far above the default matrix cap should use per-call Haversine")
	}
}

// TestExactTiersMatchHaversine pins bit-exactness of the per-call tier:
// it is the very same Haversine call (the matrix stores float32, a
// documented rounding).
func TestExactTiersMatchHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomCity(rng, 60)
	hs := HaversineStore(pts)
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(60), rng.Intn(60)
		if hs.Dist(i, j) != Haversine(pts[i], pts[j]) {
			t.Fatalf("HaversineStore.Dist(%d,%d) differs from Haversine", i, j)
		}
	}
}

// TestFallbackCounter: every store is exact, so no lookup on any tier
// counts a fallback.
func TestFallbackCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomCity(rng, 300)
	for _, s := range []Store{NewDistStore(pts, 0), NewDistStore(pts, 10)} {
		for trial := 0; trial < 200; trial++ {
			s.Dist(rng.Intn(len(pts)), rng.Intn(len(pts)))
		}
	}
	if got := FallbackTotal(); got != 0 {
		t.Fatalf("FallbackTotal = %d, want 0", got)
	}
}
