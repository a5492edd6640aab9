package geo

import "math"

// Unit is a point's position on the unit sphere. The squared chord
// between two units is 4·sin²(θ/2) — four times the h term Haversine
// computes — so it orders point pairs exactly like their great-circle
// distance, at the cost of three subtractions and three multiply-adds.
type Unit [3]float64

// ToUnit returns the unit vector of p.
func ToUnit(p Point) Unit {
	const degToRad = math.Pi / 180
	sinLat, cosLat := math.Sincos(p.Lat * degToRad)
	sinLon, cosLon := math.Sincos(p.Lon * degToRad)
	return Unit{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// Chord2 returns the squared chord length between two unit vectors.
func Chord2(a, b *Unit) float64 {
	x, y, z := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return x*x + y*y + z*z
}

// Margins of LegBounds. Computed chords are within ~1e-15 of the chord
// Haversine's own h implies, and a computed Haversine within ~1e-11 km
// of the distance its h implies; the margins sit orders of magnitude
// above both, and above the rounding of the sum distance + leg.
const (
	legTolKm = 1e-9  // per km of limit, plus this absolute floor
	chordTol = 1e-12 // unit-sphere chord
)

// LegBounds turns a walked distance and its limit into squared-chord
// bounds for the leg check distance + Haversine(a, b) > limit. A leg
// with Chord2 below in certainly passes that check, one with Chord2
// above out certainly fails it, and only the narrow band [in, out]
// needs the original expression evaluated — so the decision is always
// the exact-Haversine one. A walked distance already over the limit
// fails every leg (in = out = -1); a remaining budget beyond any
// great-circle distance passes every leg (in = out = +Inf).
func LegBounds(distance, limit float64) (in, out float64) {
	const halfCircle = math.Pi * EarthRadiusKm
	rem := limit - distance
	switch {
	case rem < 0:
		return -1, -1
	case rem > 2*halfCircle:
		return math.Inf(1), math.Inf(1)
	}
	tol := legTolKm * (1 + math.Abs(limit))
	in, out = 0, math.Inf(1)
	if lo := rem - tol; lo >= halfCircle {
		in = math.Inf(1)
	} else if c := chordOf(lo) - chordTol; c > 0 {
		in = c * c
	}
	if hi := rem + tol; hi < halfCircle {
		c := chordOf(hi) + chordTol
		out = c * c
	}
	return in, out
}

// chordOf returns the unit-sphere chord spanning a great-circle
// distance of km (0 <= km <= πR).
func chordOf(km float64) float64 {
	return 2 * math.Sin(km/(2*EarthRadiusKm))
}
