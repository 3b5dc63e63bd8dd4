// Package graph is hookfire testdata: the arena-graph package itself sits
// below the hook plane, so its own internal mutations are never checked.
package graph

type Graph struct {
	edges [][]int
}

func New(n int) *Graph { return &Graph{edges: make([][]int, n)} }

func (g *Graph) AddOutEdge(u, v int) {
	g.edges[u] = append(g.edges[u], v) // inside package graph: exempt
}

func (g *Graph) RedirectOutEdge(u, slot, v int) {
	g.edges[u][slot] = v
}

type Snapshot struct {
	Src, Dst []int
}

func WireSnapshotEdges(g *Graph, s *Snapshot) {
	for i := range s.Src {
		g.AddOutEdge(s.Src[i], s.Dst[i])
	}
}

// SnapshotWiring mirrors the incremental bulk wiring: the edges land at
// Wire.
type SnapshotWiring struct {
	g *Graph
	s *Snapshot
}

func (w *SnapshotWiring) Wire() { WireSnapshotEdges(w.g, w.s) }
