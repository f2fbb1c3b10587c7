package dist

import (
	"context"
	"fmt"
	"sync"

	"approxmatch/internal/constraint"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// ReplicaSet implements the §4/§5.4 "reloading on a smaller deployment"
// flow faithfully: the pruned candidate (or intermediate) subgraph is
// checkpointed, reloaded as an independent graph on each of several small
// deployments, and prototypes are searched across the replicas in parallel.
// Results are translated back to the original graph's vertex ids.
type ReplicaSet struct {
	origGraph *graph.Graph
	orig      []graph.VertexID // replica vertex id -> original id
	engines   []*Engine
}

// NewReplicaSet checkpoints the active subgraph of pruned and reloads it
// onto `replicas` deployments, each with the given per-replica config.
func NewReplicaSet(g *graph.Graph, pruned *core.State, replicas int, cfg Config) (*ReplicaSet, error) {
	if replicas < 1 {
		replicas = 1
	}
	data, orig, err := Checkpoint(g, pruned)
	if err != nil {
		return nil, fmt.Errorf("dist: replica checkpoint: %w", err)
	}
	rs := &ReplicaSet{origGraph: g, orig: orig}
	for i := 0; i < replicas; i++ {
		e, err := Reload(data, cfg)
		if err != nil {
			return nil, fmt.Errorf("dist: replica %d reload: %w", i, err)
		}
		rs.engines = append(rs.engines, e)
	}
	return rs, nil
}

// Replicas returns the number of deployments.
func (rs *ReplicaSet) Replicas() int { return len(rs.engines) }

// SubgraphSize returns the checkpointed subgraph's vertex count.
func (rs *ReplicaSet) SubgraphSize() int { return len(rs.orig) }

// Search runs the given templates across the replicas (each replica takes
// the next unsearched template — the paper's batched parallel prototype
// search) and returns solutions in original-graph coordinates, index-aligned
// with templates.
func (rs *ReplicaSet) Search(templates []*pattern.Template, freq constraint.LabelFreq, opts Options) []*core.Solution {
	out := make([]*core.Solution, len(templates))
	next := make(chan int, len(templates))
	for i := range templates {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for _, e := range rs.engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			satisfied := make([]bool, e.Graph().NumVertices())
			for i := range next {
				sol := e.searchOnReplica(templates[i], freq, satisfied, opts)
				out[i] = rs.translate(sol)
			}
		}(e)
	}
	wg.Wait()
	return out
}

// searchOnReplica runs the distributed per-prototype search on the whole
// replica graph (the replica IS the pruned subgraph, so no candidate-set
// phase is needed).
func (e *Engine) searchOnReplica(t *pattern.Template, freq constraint.LabelFreq, satisfied []bool, opts Options) *core.Solution {
	ds := newDistState(e)
	g := e.Graph()
	for v := 0; v < g.NumVertices(); v++ {
		ds.active[v] = true
	}
	for slot := range ds.edgeOn {
		ds.edgeOn[slot] = true
	}
	ds.initOmega(t)
	ds.lccDist(t)
	pruning, _ := constraint.Generate(t)
	if freq != nil {
		pruning = constraint.OrientAll(t, pruning, freq)
	}
	constraint.OrderWalks(t, pruning, freq)
	for _, w := range pruning {
		if ds.nlccDist(t, w, satisfied, nil) {
			ds.lccDist(t)
		}
	}
	var vm core.Metrics
	return core.FinalizeSolution(context.Background(), ds.toCoreState(), t, opts.Workers, opts.CountMatches, &vm)
}

// translate maps a replica-coordinate solution back to the original graph.
func (rs *ReplicaSet) translate(sol *core.Solution) *core.Solution {
	g := rs.origGraph
	out := &core.Solution{Proto: sol.Proto, MatchCount: sol.MatchCount}
	st := core.NewEmptyState(g)
	sol.Verts.ForEach(func(rv int) {
		st.VertexBits().Set(int(rs.orig[rv]))
	})
	// Translate directed slots: replica slot (u -> i-th neighbor).
	rg := rs.engines[0].Graph()
	sol.Edges.ForEach(func(slot int) {
		// Find the replica vertex owning the slot by binary search over
		// adjacency offsets.
		u := replicaSlotOwner(rg, slot)
		w := rg.Neighbors(u)[slot-int(rg.AdjOffset(u))]
		ou, ow := rs.orig[u], rs.orig[w]
		if i := g.EdgeIndex(ou, ow); i >= 0 {
			st.EdgeBits().Set(int(g.AdjOffset(ou)) + i)
		}
	})
	out.Verts = st.VertexBits().Clone()
	out.Edges = st.EdgeBits().Clone()
	return out
}

// replicaSlotOwner returns the vertex whose adjacency contains the given
// directed slot index.
func replicaSlotOwner(g *graph.Graph, slot int) graph.VertexID {
	lo, hi := 0, g.NumVertices()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(g.AdjOffset(graph.VertexID(mid))) <= slot {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return graph.VertexID(lo)
}
