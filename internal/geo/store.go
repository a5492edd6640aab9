package geo

import "fmt"

// Store is the pairwise-distance surface the planner layers depend on —
// the concrete representation (exact matrix or on-the-fly Haversine)
// stays a detail of this package, selected by catalog size. All
// implementations are immutable once built and safe for concurrent use.
type Store interface {
	// Len returns the number of points covered.
	Len() int
	// Dist returns the distance between points i and j in kilometers.
	Dist(i, j int) float64
	// SizeBytes estimates the store's resident backing bytes.
	SizeBytes() int
}

// FallbackTotal returns the process-wide count of approximate distance
// lookups that fell back to an exact recomputation. Every store is
// exact, so it is always 0; it stays for callers that still report it.
func FallbackTotal() uint64 { return 0 }

// NewDistStore selects the distance representation for a catalog: the
// precomputed float32 matrix up to matrixMax points (<= 0 means
// DefaultDistMatrixMaxItems), exact per-call Haversine beyond — 16
// bytes per point instead of 4n².
func NewDistStore(pts []Point, matrixMax int) Store {
	if matrixMax <= 0 {
		matrixMax = DefaultDistMatrixMaxItems
	}
	if len(pts) <= matrixMax {
		return NewDistMatrix(pts)
	}
	return HaversineStore(pts)
}

// SizeBytes reports the matrix's float32 backing array.
func (m *DistMatrix) SizeBytes() int { return 4 * len(m.d) }

// HaversineStore computes every distance exactly on demand — no
// precomputation, 16 bytes per point. It is NewDistStore's tier above
// the matrix cap.
type HaversineStore []Point

// Len returns the number of points covered.
func (h HaversineStore) Len() int { return len(h) }

// Dist returns the exact Haversine distance between points i and j.
func (h HaversineStore) Dist(i, j int) float64 {
	if i < 0 || i >= len(h) || j < 0 || j >= len(h) {
		panic(fmt.Sprintf("geo: dist index (%d,%d) out of range [0,%d)", i, j, len(h)))
	}
	return Haversine(h[i], h[j])
}

// SizeBytes reports the point slice backing the store.
func (h HaversineStore) SizeBytes() int { return 16 * len(h) }
