// Package gen generates synthetic graphs that stand in for the paper's
// datasets (LiveJournal, Twitter, Friendster; Table 1). The originals are
// multi-billion-edge web downloads that are unavailable offline, so the
// experiment harness uses scale-free generators with matched average degree
// and a power-law degree profile.
//
// Two properties of the real graphs drive every effect the paper measures,
// and both are reproduced here:
//
//  1. Scale-free degrees — a small set of hubs holds a large share of all
//     edges, so balancing one dimension (vertices or edges) skews the other
//     (§2.3 Limitation #1).
//  2. ID/degree correlation and ID locality — in social networks low vertex
//     IDs belong to old, high-degree accounts and many edges connect nearby
//     IDs. The first makes Chunk-V edge-skewed (the hub chunk), the second
//     gives contiguous-chunk and Fennel partitions their edge-cut advantage
//     over Hash (§2.3 Limitation #2).
package gen

import (
	"fmt"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// Config parameterizes the ranked Chung–Lu generator.
type Config struct {
	// NumVertices is the vertex count n.
	NumVertices int
	// AvgDegree is the target average out-degree d̄; the generator emits
	// ≈ n·d̄ arcs.
	AvgDegree float64
	// Skew s in (0,1) is the rank exponent: vertex v gets weight
	// (v+1)^(-s). Larger s ⇒ heavier hubs. s relates to the degree
	// distribution tail exponent β by s = 1/(β−1); social graphs have
	// β ≈ 2.1–2.5, i.e. s ≈ 0.65–0.9.
	Skew float64
	// Locality is the probability that an arc's destination is drawn from
	// a window of nearby vertex IDs instead of globally by weight.
	Locality float64
	// Window is the half-width of the locality window.
	Window int
	// CommunityProb is the probability that an arc's destination is a
	// uniform member of the source's community. Communities are
	// hash-scattered across the ID space, so contiguous chunking cuts
	// ~(k−1)/k of community edges while affinity-based streaming
	// (Fennel, BPart) can discover and keep them — the structure behind
	// the paper's Fennel edge-cut advantage (Table 3).
	CommunityProb float64
	// Communities is the number of communities (membership =
	// hash(v) mod Communities). 0 derives ≈ n/250 communities.
	Communities int
	// MinOutDegree floors every vertex's out-degree (default 1 via
	// Normalize) so random walkers never start on a dead end.
	MinOutDegree int
	// MaxDegreeShare caps any single vertex's out-degree at this fraction
	// of the total edge count. Real social graphs obey such a cap (the
	// largest Twitter account holds ≈0.2% of all follower edges); without
	// it a small-scale power-law sample concentrates implausibly much
	// mass in vertex 0. Default 0.002; set ≥ 1 to disable.
	MaxDegreeShare float64
	// Shuffle, when true, relabels vertices with a random permutation,
	// destroying the ID/degree correlation. Used by ablation tests.
	Shuffle bool
	// Seed drives all randomness.
	Seed uint64
}

// Normalize fills defaults and validates; it returns an error describing the
// first invalid field.
func (c *Config) Normalize() error {
	if c.NumVertices <= 0 {
		return fmt.Errorf("gen: NumVertices = %d, want > 0", c.NumVertices)
	}
	if c.AvgDegree <= 0 {
		return fmt.Errorf("gen: AvgDegree = %v, want > 0", c.AvgDegree)
	}
	if c.Skew <= 0 || c.Skew >= 1 {
		return fmt.Errorf("gen: Skew = %v, want in (0,1)", c.Skew)
	}
	if c.Locality < 0 || c.Locality > 1 {
		return fmt.Errorf("gen: Locality = %v, want in [0,1]", c.Locality)
	}
	if c.CommunityProb < 0 || c.CommunityProb+c.Locality > 1 {
		return fmt.Errorf("gen: CommunityProb = %v with Locality %v, want non-negative and summing ≤ 1",
			c.CommunityProb, c.Locality)
	}
	if c.Communities == 0 {
		c.Communities = c.NumVertices/250 + 1
	}
	if c.Communities < 0 {
		return fmt.Errorf("gen: Communities = %d, want > 0", c.Communities)
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.MinOutDegree == 0 {
		c.MinOutDegree = 1
	}
	if c.MinOutDegree < 0 {
		return fmt.Errorf("gen: MinOutDegree = %d, want >= 0", c.MinOutDegree)
	}
	if c.MaxDegreeShare == 0 {
		c.MaxDegreeShare = 0.002
	}
	if c.MaxDegreeShare < 0 {
		return fmt.Errorf("gen: MaxDegreeShare = %v, want > 0", c.MaxDegreeShare)
	}
	return nil
}

// ChungLu generates a directed scale-free graph under the ranked Chung–Lu
// model: vertex v has weight (v+1)^(-Skew); its out-degree is the weight's
// share of n·AvgDegree arcs, and each arc's destination is drawn
// proportionally to weight (globally) or uniformly from a nearby ID window
// (with probability Locality).
func ChungLu(cfg Config) (*graph.Graph, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	n := cfg.NumVertices
	rng := xrand.New(cfg.Seed)
	weights := xrand.PowerLawWeights(n, cfg.Skew, 1)
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	targetArcs := cfg.AvgDegree * float64(n)
	alias := xrand.NewAlias(weights)

	maxDeg := int(cfg.MaxDegreeShare * targetArcs)
	if maxDeg < cfg.MinOutDegree+1 {
		maxDeg = cfg.MinOutDegree + 1
	}
	degs := make([]int, n)
	assigned := 0
	for v := 0; v < n; v++ {
		deg := int(weights[v]/totalW*targetArcs + 0.5)
		if deg > maxDeg {
			deg = maxDeg
		}
		if deg < cfg.MinOutDegree {
			deg = cfg.MinOutDegree
		}
		degs[v] = deg
		assigned += deg
	}
	// Redistribute the mass trimmed by the degree cap so the average
	// degree stays on target: add one edge per pass to every vertex below
	// the cap until the deficit is gone.
	for deficit := int(targetArcs) - assigned; deficit > 0; {
		progress := false
		for v := 0; v < n && deficit > 0; v++ {
			if degs[v] < maxDeg {
				degs[v]++
				deficit--
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Community membership: hash-scattered so communities are invisible
	// to ID-contiguous chunking. Within a community, endpoints are drawn
	// proportionally to the members' global weights — communities are
	// themselves scale-free, anchored on their own hubs, as in real
	// social graphs.
	var members [][]int32
	var community []int32
	var commAlias []*xrand.Alias
	if cfg.CommunityProb > 0 {
		members = make([][]int32, cfg.Communities)
		community = make([]int32, n)
		for v := 0; v < n; v++ {
			c := int32(mix64(uint64(v)^cfg.Seed^0xC0FFEE) % uint64(cfg.Communities))
			community[v] = c
			members[c] = append(members[c], int32(v))
		}
		commAlias = make([]*xrand.Alias, cfg.Communities)
		for c, ms := range members {
			if len(ms) == 0 {
				continue
			}
			// Mild within-community rank skew: each community has its
			// own hubs (its earliest members), independent of the
			// global hub ranking.
			commAlias[c] = xrand.NewAlias(xrand.PowerLawWeights(len(ms), 0.6, 1))
		}
	}
	arcs := 0
	for _, d := range degs {
		arcs += d
	}
	b := graph.NewBuilder(n)
	b.Reserve(arcs)
	for v := 0; v < n; v++ {
		for i := 0; i < degs[v]; i++ {
			dst := drawDst(rng, alias, v, n, cfg, community, members, commAlias)
			b.AddEdge(graph.VertexID(v), graph.VertexID(dst))
		}
	}
	g := b.Build()
	if cfg.Shuffle {
		g = Relabel(g, rng.Perm(n))
	}
	return g, nil
}

// drawDst picks an arc destination from the three-way mixture: a uniform
// member of the source's community (probability CommunityProb), a uniform
// ID within the locality window (probability Locality), or a global
// weight-proportional draw. Self-loops are retried a few times and then
// redirected to a neighbor ID.
func drawDst(rng *xrand.RNG, alias *xrand.Alias, src, n int, cfg Config, community []int32, members [][]int32, commAlias []*xrand.Alias) int {
	for attempt := 0; attempt < 4; attempt++ {
		var dst int
		u := rng.Float64()
		switch {
		case u < cfg.CommunityProb && community != nil:
			c := community[src]
			if ca := commAlias[c]; ca != nil && len(members[c]) > 1 {
				dst = int(members[c][ca.Sample(rng)])
			} else {
				ms := members[c]
				dst = int(ms[rng.Intn(len(ms))])
			}
		case u < cfg.CommunityProb+cfg.Locality:
			off := rng.Intn(2*cfg.Window+1) - cfg.Window
			dst = ((src+off)%n + n) % n
		default:
			dst = alias.Sample(rng)
		}
		if dst != src {
			return dst
		}
	}
	return (src + 1) % n
}

// mix64 is the splitmix64 finalizer used for community hashing.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Relabel renames vertex v to perm[v] and rebuilds the graph. perm must be
// a permutation of [0, NumVertices).
func Relabel(g *graph.Graph, perm []int) *graph.Graph {
	n := g.NumVertices()
	if len(perm) != n {
		panic(fmt.Sprintf("gen: perm length %d != |V| %d", len(perm), n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(g.NumEdges())
	g.Edges(func(e graph.Edge) bool {
		b.AddEdge(graph.VertexID(perm[e.Src]), graph.VertexID(perm[e.Dst]))
		return true
	})
	return b.Build()
}
