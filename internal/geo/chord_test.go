package geo

import (
	"math"
	"math/rand"
	"testing"
)

// legDecision is the leg check as mdp.Episode.CanStep makes it: the
// squared-chord screen from LegBounds, then the original expression for
// legs inside the band. screened reports whether the chord decided.
func legDecision(distance, limit float64, a, b Point) (exceeds, screened bool) {
	in, out := LegBounds(distance, limit)
	ua, ub := ToUnit(a), ToUnit(b)
	switch c2 := Chord2(&ua, &ub); {
	case c2 < in:
		return false, true
	case c2 > out:
		return true, true
	}
	return distance+Haversine(a, b) > limit, false
}

// checkLeg fails the test when the screened decision differs from the
// exact expression distance + Haversine(a, b) > limit.
func checkLeg(t *testing.T, distance, limit float64, a, b Point) bool {
	t.Helper()
	want := distance+Haversine(a, b) > limit
	got, screened := legDecision(distance, limit, a, b)
	if got != want {
		t.Fatalf("distance %v limit %v a %v b %v: chord decision %v (screened %v), exact %v",
			distance, limit, a, b, got, screened, want)
	}
	return screened
}

func randomGlobe(rng *rand.Rand) Point {
	return Point{Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi, Lon: 360*rng.Float64() - 180}
}

// TestLegBoundsRandomPairs: on random city and globe pairs with random
// budgets the chord decision equals the exact one, and the chord alone
// decides almost every leg.
func TestLegBoundsRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	city := randomCity(rng, 500)
	screened, total := 0, 0
	for trial := 0; trial < 200000; trial++ {
		var a, b Point
		if trial%2 == 0 {
			a, b = city[rng.Intn(len(city))], city[rng.Intn(len(city))]
		} else {
			a, b = randomGlobe(rng), randomGlobe(rng)
		}
		distance := 50 * rng.Float64()
		limit := distance + 2*Haversine(a, b)*rng.Float64()
		if trial%5 == 0 {
			limit = distance + 30*rng.Float64()
		}
		if checkLeg(t, distance, limit, a, b) {
			screened++
		}
		total++
	}
	if screened < total*99/100 {
		t.Fatalf("chord screened %d of %d legs, want at least 99%%", screened, total)
	}
}

// TestLegBoundsAdversarial puts the remaining budget within 1e-12 km of
// the leg, and on the neighbouring floats of the exact boundary.
func TestLegBoundsAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	city := randomCity(rng, 200)
	for trial := 0; trial < 20000; trial++ {
		a, b := city[rng.Intn(len(city))], city[rng.Intn(len(city))]
		if trial%3 == 0 {
			a, b = randomGlobe(rng), randomGlobe(rng)
		}
		distance := 20 * rng.Float64()
		boundary := distance + Haversine(a, b)
		for _, delta := range []float64{-1e-12, -1e-13, 0, 1e-13, 1e-12, (2*rng.Float64() - 1) * 1e-12} {
			checkLeg(t, distance, boundary+delta, a, b)
		}
		checkLeg(t, distance, math.Nextafter(boundary, 0), a, b)
		checkLeg(t, distance, math.Nextafter(boundary, math.Inf(1)), a, b)
	}
}

// TestLegBoundsDegenerate covers identical points, near-antipodal
// points, a walked distance already over the limit (L < 0) and budgets
// beyond half the globe (L ≥ πR).
func TestLegBoundsDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	halfCircle := math.Pi * EarthRadiusKm
	for trial := 0; trial < 2000; trial++ {
		a := randomGlobe(rng)
		distance := 10 * rng.Float64()
		// Identical points: a zero leg on an exhausted, barely open or
		// overspent budget.
		for _, limit := range []float64{distance, math.Nextafter(distance, 0), math.Nextafter(distance, math.Inf(1)), distance + 1e-12, distance - 1e-12} {
			checkLeg(t, distance, limit, a, a)
		}
		// Near-antipodal points around the longest possible leg.
		for _, eps := range []float64{0, 1e-12, 1e-9, 1e-6, 1e-3} {
			b := Point{Lat: -a.Lat, Lon: a.Lon + 180 - eps}
			h := Haversine(a, b)
			for _, limit := range []float64{
				distance + h, distance + h - 1e-9, distance + h + 1e-9,
				math.Nextafter(distance+h, 0), math.Nextafter(distance+h, math.Inf(1)),
				distance + halfCircle, distance + halfCircle - 1e-9, distance + halfCircle + 1e-9,
			} {
				checkLeg(t, distance, limit, a, b)
			}
		}
		// L < 0 and L ≥ πR on arbitrary pairs.
		b := randomGlobe(rng)
		for _, limit := range []float64{
			distance - 1e-12, distance - 1, 0.5 * distance,
			distance + halfCircle, distance + 2*halfCircle, distance + 1e6, math.Inf(1),
		} {
			checkLeg(t, distance, limit, a, b)
			checkLeg(t, distance, limit, a, a)
		}
	}
}

// TestLegBoundsScreensEverythingOutsideBudget pins the two all-or-nothing
// cases: an overspent walk rejects every leg, and a budget beyond any
// great-circle distance admits every leg, without the exact expression.
func TestLegBoundsScreensEverythingOutsideBudget(t *testing.T) {
	if in, out := LegBounds(5, 4); in >= 0 || out >= 0 {
		t.Fatalf("overspent: bounds (%v, %v), want both negative", in, out)
	}
	if in, _ := LegBounds(5, 5+1e6); !math.IsInf(in, 1) {
		t.Fatalf("unbounded: in = %v, want +Inf", in)
	}
	if in, out := LegBounds(0, 3); !(in > 0 && in < out && out < 4) {
		t.Fatalf("3 km budget: bounds (%v, %v), want 0 < in < out < 4", in, out)
	}
}
