// Package xrand provides a deterministic, splittable pseudo-random number
// generator together with the distribution samplers used throughout the
// Sleuth reproduction: log-normal service times, Bernoulli fault draws
// and weighted choices.
//
// Determinism matters here: every experiment in the benchmark harness is
// seeded so that tables and figures can be regenerated exactly. The
// generator is splittable — Split derives an independent child stream from
// a string label — so that, for example, the fault injector and the latency
// sampler of a simulation never perturb each other's sequences even when
// code between them changes.
package xrand

import (
	"hash/fnv"
	"math"
)

// Rand is a xoshiro256** generator with helper samplers. It is not safe for
// concurrent use; derive per-goroutine streams with Split.
type Rand struct {
	s [4]uint64
	// origin preserves the seed material at construction so that Split is a
	// pure function of the generator's identity, not its current position.
	origin [4]uint64
	// spare holds a cached second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, per the xoshiro authors' recommendation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Two generators with
// the same seed produce identical sequences.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.origin = r.s
	return r
}

// Split derives an independent child generator from this generator's
// original identity and the given label. Splitting is a pure function of
// the parent seed material and the label: it does not consume randomness
// from the parent, so reordering Split calls never changes any stream.
func (r *Rand) Split(label string) *Rand {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range r.origin {
		putUint64(b[:], s)
		_, _ = h.Write(b[:])
	}
	_, _ = h.Write([]byte(label))
	return New(h.Sum64())
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using the given swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal sample (Box-Muller with caching).
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// Normal returns a normal sample with the given mean and standard deviation.
func (r *Rand) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// LogNormal returns a sample whose natural logarithm is normal with
// parameters mu and sigma. Span service times in the reproduction follow
// this family, matching the heavy-tailed production distributions the paper
// learned from Alibaba traces (Figure 3).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential sample with the given rate lambda > 0.
func (r *Rand) ExpFloat64(lambda float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1-u) / lambda
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If all
// weights are zero it returns a uniform index.
func (r *Rand) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedChoice with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
