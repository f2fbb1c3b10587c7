package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/rmat"
)

func BenchmarkMaxCandidateSet(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 5000, 20000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Metrics
		MaxCandidateSet(g, tp, &m)
	}
}

func BenchmarkExactMatchTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 5000, 20000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactMatch(g, tp, true, false)
	}
}

func BenchmarkPipelineK2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 3000, 12000, 4)
	tp := pattern.MustNew([]pattern.Label{0, 1, 2, 3},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 0, J: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, tp, DefaultConfig(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkRecyclingAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 3000, 15000, 3)
	tp := pattern.MustNew([]pattern.Label{0, 1, 0, 1, 2},
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 3}, {I: 0, J: 3}, {I: 3, J: 4}})
	for _, recycle := range []bool{false, true} {
		name := "off"
		if recycle {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig(2)
			cfg.WorkRecycling = recycle
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, tp, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRMAT builds the shared benchmark graph/template pair for the kernel
// worker benchmarks: a scale-12 R-MAT graph with ids relabeled by degree,
// hubs first, as amatchd serves it, and a triangle over the graph's three
// most frequent labels.
func benchRMAT(b *testing.B) (*graph.Graph, *pattern.Template) {
	b.Helper()
	p := rmat.Graph500(12, 42)
	p.EdgeFactor = 8
	g := graph.RelabelByDegree(rmat.Generate(p))
	freq := g.LabelFrequencies()
	labels := make([]pattern.Label, 0, len(freq))
	for l := range freq {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if freq[labels[i]] != freq[labels[j]] {
			return freq[labels[i]] > freq[labels[j]]
		}
		return labels[i] < labels[j]
	})
	tp := pattern.MustNew(labels[:3],
		[]pattern.Edge{{I: 0, J: 1}, {I: 1, J: 2}, {I: 0, J: 2}})
	return g, tp
}

func BenchmarkMaxCandidateSetWorkers(b *testing.B) {
	g, tp := benchRMAT(b)
	for _, workers := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var m Metrics
				MaxCandidateSetWorkers(g, tp, workers, &m)
			}
		})
	}
}

func BenchmarkSearchWorkers(b *testing.B) {
	g, tp := benchRMAT(b)
	for _, workers := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := Run(g, tp, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
