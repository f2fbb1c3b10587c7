package dist

import (
	"bytes"
	"fmt"

	"approxmatch/internal/bitvec"
	"approxmatch/internal/core"
	"approxmatch/internal/graph"
)

// BalancedOwners builds a vertex-to-rank assignment that spreads the active
// vertices round-robin across ranks — the "reshuffle vertex-to-processor
// assignment" load-balancing step of §4. Inactive vertices keep their hash
// placement (they generate no work).
func BalancedOwners(active *bitvec.Vector, ranks int) []int32 {
	owner := make([]int32, active.Len())
	for v := range owner {
		owner[v] = int32(hashVertex(graph.VertexID(v)) % uint32(ranks))
	}
	next := int32(0)
	active.ForEach(func(v int) {
		owner[v] = next
		next = (next + 1) % int32(ranks)
	})
	return owner
}

// LoadImbalance summarizes compute distribution: the ratio of the maximum
// per-rank visitor count to the mean (1.0 = perfectly balanced).
func LoadImbalance(e *Engine) float64 {
	var max, total int64
	for r := range e.ComputePerRank {
		c := e.ComputePerRank[r].Load()
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(e.ComputePerRank))
	if mean == 0 {
		return 1
	}
	return float64(max) / mean
}

// ResetComputeCounters zeroes the per-rank visitor counters.
func ResetComputeCounters(e *Engine) {
	for r := range e.ComputePerRank {
		e.ComputePerRank[r].Store(0)
	}
}

// Checkpoint serializes the active subgraph of state s (the pruned
// intermediate graph) to a byte buffer using the binary CSR format — the
// §4 checkpoint/reload path that lets a pruned graph move to a smaller
// deployment. It returns the serialized bytes and the mapping from
// checkpointed vertex ids back to original ids.
func Checkpoint(g *graph.Graph, s *core.State) ([]byte, []graph.VertexID, error) {
	sub, orig := graph.InducedSubgraph(g, func(v graph.VertexID) bool {
		return s.VertexActive(v)
	})
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, sub); err != nil {
		return nil, nil, fmt.Errorf("dist: checkpoint: %w", err)
	}
	return buf.Bytes(), orig, nil
}

// Reload deserializes a checkpoint into a fresh engine on a (typically
// smaller) deployment.
func Reload(data []byte, cfg Config) (*Engine, error) {
	g, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("dist: reload: %w", err)
	}
	return NewEngine(g, cfg), nil
}
