package main

import "math/rand"

// The op streams are pure functions of the workload seed: the same seed
// gives the same ops in the same order, so a timed phase and its replay
// see identical inputs, and a claim can be rechecked on a fresh seed.

const (
	serveUsers         = 10000 // user ids 0..serveUsers-1
	serveZipfS         = 1.1   // zipf exponent of user activity
	serveFeedbackShare = 0.1   // share of ops that also post feedback
)

// serveOp is one serve-builtin op: user asks for a plan on the built-in
// instance the user is pinned to, and with feedback set also rates it.
type serveOp struct {
	user     int
	inst     int
	feedback bool
	useful   bool
}

type serveStream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	insts int
}

// newServeStream draws zipf(1.1) users over serveUsers ids. A user is
// pinned to instance user mod insts, so the most active users, and with
// them the instance mix, are the same under every seed.
func newServeStream(seed int64, insts int) *serveStream {
	rng := rand.New(rand.NewSource(seed))
	return &serveStream{rng: rng, zipf: rand.NewZipf(rng, serveZipfS, 1, serveUsers-1), insts: insts}
}

func (s *serveStream) next() serveOp {
	u := int(s.zipf.Uint64())
	op := serveOp{user: u, inst: u % s.insts}
	if s.rng.Float64() < serveFeedbackShare {
		op.feedback = true
		op.useful = s.rng.Intn(2) == 0
	}
	return op
}

// panelSize is how many start items plan-8k cycles through.
const panelSize = 256

// startStream cycles through a fixed panel of panelSize start items,
// spread evenly over the n-item catalog, in an order drawn from the
// seed. The panel is fixed so that the plan-quality metrics compare like
// with like across seeds; the seed varies the order the walks run in.
type startStream struct {
	order []int
	i     int
}

func newStartStream(seed int64, n int) *startStream {
	stride := max(n/panelSize, 1)
	order := rand.New(rand.NewSource(seed)).Perm(min(panelSize, n))
	for k := range order {
		order[k] *= stride
	}
	return &startStream{order: order}
}

func (s *startStream) next() int {
	v := s.order[s.i%len(s.order)]
	s.i++
	return v
}

// coldOp is one cold-train op: a plan request for a built-in under a
// training seed no earlier op of the epoch used, so it always misses the
// policy cache.
type coldOp struct {
	inst int
	seed int64
}

// coldStream cycles through the insts built-ins; op i trains with seed
// base+i, where base is drawn from the workload seed.
type coldStream struct {
	base  int64
	insts int
	i     int
}

func newColdStream(seed int64, insts int) *coldStream {
	base := rand.New(rand.NewSource(seed)).Int63n(1<<40) + 1
	return &coldStream{base: base, insts: insts}
}

func (s *coldStream) next() coldOp {
	op := coldOp{inst: s.i % s.insts, seed: s.base + int64(s.i)}
	s.i++
	return op
}
