package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/rlplanner/rlplanner/internal/core"
	"github.com/rlplanner/rlplanner/internal/dataset"
	"github.com/rlplanner/rlplanner/internal/mdp"
)

// DefaultEnvCacheSize bounds the process-wide environment cache. An
// environment is a pure function of (catalog, resolved constraints,
// resolved reward config), and building one compiles prerequisite
// programs and possibly a quadratic distance matrix — work the serving
// path should pay once per configuration, not once per request.
const DefaultEnvCacheSize = 64

// envs is the process-wide environment cache: a bounded LRU with
// per-key singleflight, so concurrent cold requests for the same
// configuration share one build. Environments are immutable and safe to
// share across trainers, policies and requests.
var envs = NewStore[*mdp.Env](DefaultEnvCacheSize)

// EnvFor returns the environment for (instance, options), building and
// caching it on first use. The cache key scopes core.EnvKey (the
// resolved kind + hard constraints + reward configuration) by
// envDigest, so requests that differ in any input core.BuildEnv reads
// never share an environment.
func EnvFor(ctx context.Context, inst *dataset.Instance, opts core.Options) (*mdp.Env, error) {
	key, err := core.EnvKey(inst, opts)
	if err != nil {
		return nil, err
	}
	env, _, err := envs.GetOrTrain(ctx, envDigest(inst)+"|"+key, func() (*mdp.Env, error) {
		return core.BuildEnv(inst, opts)
	})
	return env, err
}

// envDigest extends Fingerprint with every other instance input
// core.BuildEnv reads and core.EnvKey leaves out: item coordinates,
// prerequisites, categories, popularity and topic counts, the
// vocabulary size and the ideal topic vector. Fingerprint itself stays
// as it is — artifact compatibility and repository filenames depend on
// it, and a policy does not care where its items sit on the map.
func envDigest(inst *dataset.Instance) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(Fingerprint(inst)))
	c := inst.Catalog
	writeInt(uint64(c.Vocabulary().Len()))
	for i := 0; i < c.Len(); i++ {
		m := c.At(i)
		writeInt(math.Float64bits(m.Lat))
		writeInt(math.Float64bits(m.Lon))
		writeInt(math.Float64bits(m.Popularity))
		writeInt(uint64(int64(m.Category)))
		writeInt(uint64(m.Topics.Count()))
		pre := ""
		if m.Prereq != nil {
			pre = m.Prereq.String()
		}
		writeInt(uint64(len(pre)))
		h.Write([]byte(pre))
	}
	ideal := inst.Soft.Ideal.Indices()
	writeInt(uint64(len(ideal)))
	for _, t := range ideal {
		writeInt(uint64(t))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// newPlanner builds a core.Planner over the cached environment — the
// constructor every trainer and artifact load routes through instead of
// core.New, which rebuilds the environment from scratch.
func newPlanner(ctx context.Context, inst *dataset.Instance, opts core.Options) (*core.Planner, error) {
	env, err := EnvFor(ctx, inst, opts)
	if err != nil {
		return nil, err
	}
	return core.NewWithEnv(inst, opts, env)
}

// EnvCacheStats reports the environment cache's cumulative lookup
// counters and current size, for the serving metrics endpoint.
func EnvCacheStats() CacheStats { return envs.Stats() }

// EnvCacheBytes estimates the resident memory of the cached
// environments. The dominant terms are the distance store trip
// environments precompute (the float32 matrix, or points and unit
// vectors above the matrix cap — the environment reports its own size)
// and the per-item catalog/prerequisite state; the figure is an
// operator-facing estimate, not an accounting of every allocation.
func EnvCacheBytes() int {
	return envs.SumBytes(func(env *mdp.Env) int {
		return env.NumItems()*512 + env.DistStoreBytes()
	})
}

// PolicyBytes estimates a policy artifact's resident memory: the Q
// table's own backing (8n² dense, visited-cells-proportional sparse)
// for value-based policies, a small constant for the procedural
// baselines (their plans are recomputed per request from the shared
// environment).
func PolicyBytes(p Policy) int {
	vp, ok := p.(ValuePolicy)
	if !ok || vp.Values() == nil || vp.Values().Q == nil {
		return 1 << 10
	}
	return vp.Values().Q.MemoryBytes()
}
