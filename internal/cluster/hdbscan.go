package cluster

import (
	"math"
	"sort"

	"github.com/sleuth-rca/sleuth/internal/obs"
)

// Options configures HDBSCAN. The paper initialises min_cluster_size=10,
// min_samples=5, cluster_selection_epsilon=1 and adjusts per batch
// (§3.3.2). Note that with the Eq. 1 distance bounded by 1, an epsilon of
// 1 merges everything reachable; DefaultOptions is the one policy every
// caller runs.
type Options struct {
	MinClusterSize int
	MinSamples     int
	// SelectionEpsilon stops cluster splits below this distance: clusters
	// born of a split at distance < ε are merged into their parent.
	SelectionEpsilon float64
}

// DefaultOptions is the shipped clustering policy: the one Analyze, the
// evaluation harness and `sleuthctl cluster` run. Its epsilon lives in the
// unit-bounded Eq. 1 distance space. The dendrogram root is never selected
// (as in the reference implementation's default), so a batch too small to
// split into two clusters of MinClusterSize is all noise.
func DefaultOptions() Options {
	return Options{MinClusterSize: 4, MinSamples: 2, SelectionEpsilon: 0.1}
}

// HDBSCAN clusters points given their distance matrix and returns a label
// per point; -1 marks noise. The implementation follows the standard
// pipeline: core distances → mutual reachability → MST (Prim) → single-
// linkage dendrogram → condensed tree (min cluster size) → stability-based
// selection with the epsilon threshold. Core distances fan out on
// par.For and Prim runs serially (parallel.go); both record per-stage
// histograms (cluster.core_distances_us, cluster.mst_us), and labels are
// bit-identical for any GOMAXPROCS.
func HDBSCAN(m *Matrix, opts Options) []int {
	timer := obs.H("cluster.hdbscan_us").Start()
	defer timer.Stop()
	// A cluster needs at least two members and core distances at least
	// one neighbour.
	opts.MinClusterSize = max(opts.MinClusterSize, 2)
	opts.MinSamples = max(opts.MinSamples, 1)
	n := m.N
	if n < opts.MinClusterSize {
		// Too few points for one cluster: everything is noise.
		labels := make([]int, n)
		for i := range labels {
			labels[i] = -1
		}
		return labels
	}
	edges := mstEdges(m, coreDistances(m, opts.MinSamples))
	dendro := singleLinkage(edges, n)
	condensed := condense(dendro, n, opts.MinClusterSize)
	selected := selectClusters(condensed, opts)
	return labelPoints(condensed, selected, n)
}

type edge struct {
	a, b int
	w    float64
}

// sortEdges orders MST edges by weight for the single-linkage sweep. The
// input order is deterministic (tree-construction order, identical for
// any worker count), so equal-weight edges always land the same way.
func sortEdges(edges []edge) {
	sort.Slice(edges, func(i, j int) bool { return edges[i].w < edges[j].w })
}

func mutualReach(m *Matrix, core []float64, a, b int) float64 {
	d := m.At(a, b)
	if core[a] > d {
		d = core[a]
	}
	if core[b] > d {
		d = core[b]
	}
	return d
}

// dendroNode is a single-linkage merge: children are node IDs (< n are
// points, ≥ n internal), dist the merge distance, size the subtree size.
type dendroNode struct {
	left, right int
	dist        float64
	size        int
}

// singleLinkage converts sorted MST edges into a dendrogram (node IDs n..2n-2).
func singleLinkage(edges []edge, n int) []dendroNode {
	parent := make([]int, 2*n-1)
	size := make([]int, 2*n-1)
	for i := range parent {
		parent[i] = i
		size[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	nodes := make([]dendroNode, 0, n-1)
	next := n
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		nodes = append(nodes, dendroNode{left: ra, right: rb, dist: e.w, size: size[ra] + size[rb]})
		parent[ra] = next
		parent[rb] = next
		size[next] = size[ra] + size[rb]
		next++
	}
	return nodes
}

// condensedCluster is a node of the condensed tree.
type condensedCluster struct {
	parent      int // condensed parent ID, -1 for root
	birthLambda float64
	children    []int // condensed child IDs (true splits)
	// points holds (point, lambda at which it left this cluster).
	points []pointExit
	// splitLambda is the lambda at which the cluster split into children
	// (0 if it dissolved without a true split).
	splitLambda float64
	stability   float64
	size        int
}

type pointExit struct {
	point  int
	lambda float64
}

// condense walks the dendrogram top-down producing the condensed tree:
// splits where both sides have ≥ mcs points create child clusters; smaller
// sides "fall out" as points at that level's lambda.
func condense(dendro []dendroNode, n, mcs int) []*condensedCluster {
	if len(dendro) == 0 {
		// Single point: one trivial root.
		return []*condensedCluster{{parent: -1}}
	}
	rootID := n + len(dendro) - 1
	clusters := []*condensedCluster{{parent: -1, birthLambda: 0}}

	// size of a dendrogram node.
	nodeSize := func(id int) int {
		if id < n {
			return 1
		}
		return dendro[id-n].size
	}
	// collectPoints appends all leaf points of dendro node id, in the same
	// left-then-right DFS order a recursive walk would produce (stability
	// sums add point exit terms in this order, so it must stay fixed). The
	// walk is iterative over a reused stack: a degenerate chain-shaped
	// dendrogram — large n with near-uniform distances — is O(n) deep, and
	// recursing that far would blow the goroutine stack.
	var walk []int
	collectPoints := func(id int, out *[]int) {
		walk = append(walk[:0], id)
		for len(walk) > 0 {
			id := walk[len(walk)-1]
			walk = walk[:len(walk)-1]
			if id < n {
				*out = append(*out, id)
				continue
			}
			nd := dendro[id-n]
			// Right below left so the left subtree pops first.
			walk = append(walk, nd.right, nd.left)
		}
	}

	type frame struct {
		nodeID    int // dendrogram node
		clusterID int // condensed cluster being filled
	}
	stack := []frame{{nodeID: rootID, clusterID: 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := f.nodeID
		cl := clusters[f.clusterID]
		if id < n {
			// A bare point inside a cluster: it exits when distance → 0,
			// i.e. lambda → ∞; cap with a large lambda.
			cl.points = append(cl.points, pointExit{point: id, lambda: math.Inf(1)})
			continue
		}
		nd := dendro[id-n]
		lambda := lambdaOf(nd.dist)
		ls, rs := nodeSize(nd.left), nodeSize(nd.right)
		switch {
		case ls >= mcs && rs >= mcs:
			// True split: two child clusters born at this lambda. Every
			// point still in the cluster leaves it here, contributing
			// (λ_split - λ_birth) each to the cluster's stability.
			cl.splitLambda = lambda
			cl.stability += (lambda - cl.birthLambda) * float64(ls+rs)
			for _, child := range []int{nd.left, nd.right} {
				cid := len(clusters)
				clusters = append(clusters, &condensedCluster{
					parent:      f.clusterID,
					birthLambda: lambda,
					size:        nodeSize(child),
				})
				cl.children = append(cl.children, cid)
				stack = append(stack, frame{nodeID: child, clusterID: cid})
			}
		case ls >= mcs:
			// Right side falls out as points at this lambda.
			var pts []int
			collectPoints(nd.right, &pts)
			for _, p := range pts {
				cl.points = append(cl.points, pointExit{point: p, lambda: lambda})
			}
			stack = append(stack, frame{nodeID: nd.left, clusterID: f.clusterID})
		case rs >= mcs:
			var pts []int
			collectPoints(nd.left, &pts)
			for _, p := range pts {
				cl.points = append(cl.points, pointExit{point: p, lambda: lambda})
			}
			stack = append(stack, frame{nodeID: nd.right, clusterID: f.clusterID})
		default:
			// Cluster dissolves: everything falls out here.
			var pts []int
			collectPoints(id, &pts)
			for _, p := range pts {
				cl.points = append(cl.points, pointExit{point: p, lambda: lambda})
			}
		}
	}
	// Stabilities: Σ (λ_exit - λ_birth) over points, with exits capped at
	// the split lambda (points that persist to a split leave there) and
	// infinities capped at the cluster's own maximum finite exit.
	for _, cl := range clusters {
		maxFinite := cl.splitLambda
		for _, pe := range cl.points {
			if !math.IsInf(pe.lambda, 1) && pe.lambda > maxFinite {
				maxFinite = pe.lambda
			}
		}
		if maxFinite == 0 {
			maxFinite = cl.birthLambda + 1
		}
		cl.size = len(cl.points)
		for _, pe := range cl.points {
			l := pe.lambda
			if math.IsInf(l, 1) {
				l = maxFinite
			}
			cl.stability += l - cl.birthLambda
		}
	}
	return clusters
}

// lambdaOf converts a merge distance to density lambda = 1/d.
func lambdaOf(dist float64) float64 {
	if dist <= 1e-12 {
		return 1e12
	}
	return 1 / dist
}

// selectClusters performs bottom-up stability selection with the epsilon
// rule: a cluster born from a split at distance < ε cannot be selected
// separately from its parent. The root (cluster 0) is never selected, as in
// the reference implementation's default: the walk stops above it, so its
// children compete on their own.
func selectClusters(clusters []*condensedCluster, opts Options) map[int]bool {
	selected := make(map[int]bool)
	// Order bottom-up: children have higher indexes than parents by
	// construction.
	subtreeStability := make([]float64, len(clusters))
	for i := len(clusters) - 1; i > 0; i-- {
		cl := clusters[i]
		childSum := 0.0
		for _, c := range cl.children {
			childSum += subtreeStability[c]
		}
		// Epsilon rule: children split off at distance 1/splitLambda; if
		// that distance is below epsilon the split is too fine to honour.
		splitDist := 0.0
		if cl.splitLambda > 0 {
			splitDist = 1 / cl.splitLambda
		}
		if len(cl.children) > 0 && childSum > cl.stability && splitDist >= opts.SelectionEpsilon {
			subtreeStability[i] = childSum
		} else {
			subtreeStability[i] = cl.stability
			selected[i] = true
		}
	}
	// Deselect any selected cluster with a selected ancestor.
	for i := range clusters {
		if !selected[i] {
			continue
		}
		for p := clusters[i].parent; p >= 0; p = clusters[p].parent {
			if selected[p] {
				delete(selected, i)
				break
			}
		}
	}
	return selected
}

// labelPoints assigns each point the nearest selected ancestor cluster of
// its exit cluster, or -1 (noise).
func labelPoints(clusters []*condensedCluster, selected map[int]bool, n int) []int {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	// Compact label IDs in cluster order for determinism.
	ids := make([]int, 0, len(selected))
	for id := range selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	compact := make(map[int]int, len(ids))
	for i, id := range ids {
		compact[id] = i
	}
	for ci, cl := range clusters {
		// Find the nearest selected ancestor-or-self.
		lab := -1
		for c := ci; c >= 0; c = clusters[c].parent {
			if selected[c] {
				lab = compact[c]
				break
			}
		}
		if lab < 0 {
			continue
		}
		for _, pe := range cl.points {
			labels[pe.point] = lab
		}
	}
	return labels
}
