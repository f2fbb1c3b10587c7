package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/refmatch"
	"approxmatch/internal/server"
)

// The oracle is the reference backtracking matcher (internal/refmatch), run
// per prototype and independent of the pipeline. Counts and matching-vertex
// sets are isomorphism-invariant, so one oracle answer serves every
// prototype with the same canonical key.

type protoTruth struct {
	count int64
	verts []graph.VertexID // sorted, external ids
}

// oracle memoizes per-prototype answers on one graph. It is not safe for
// concurrent use.
type oracle struct {
	g *graph.Graph
	m map[string]*protoTruth
}

func newOracle(g *graph.Graph) *oracle { return &oracle{g: g, m: map[string]*protoTruth{}} }

func (o *oracle) truth(t *pattern.Template) *protoTruth {
	key := pattern.CanonicalKey(t)
	pt := o.m[key]
	if pt == nil {
		pt = enumerate(o.g, t)
		o.m[key] = pt
	}
	return pt
}

// enumerate makes one refmatch.EnumerateFunc pass for the prototype's
// match count (as refmatch.Count) and matching vertices (as
// refmatch.MatchingVertices).
func enumerate(g *graph.Graph, t *pattern.Template) *protoTruth {
	pt := &protoTruth{}
	seen := map[graph.VertexID]bool{}
	refmatch.EnumerateFunc(g, t, refmatch.Options{}, func(m refmatch.Match) bool {
		pt.count++
		for _, v := range m {
			if !seen[v] {
				seen[v] = true
				pt.verts = append(pt.verts, v)
			}
		}
		return true
	})
	sort.Slice(pt.verts, func(i, j int) bool { return pt.verts[i] < pt.verts[j] })
	return pt
}

// expected is the /match response the oracle predicts for a canonical-form
// template, with elapsed_ms zeroed.
func (o *oracle) expected(t *pattern.Template, k int, vectors bool) (*server.MatchResponse, error) {
	set, err := prototype.Generate(t, k)
	if err != nil {
		return nil, err
	}
	resp := &server.MatchResponse{
		Prototypes: make([]server.PrototypeSummary, 0, len(set.Protos)),
		Vectors:    map[string][]int{},
	}
	for pi, p := range set.Protos {
		pt := o.truth(p.Template)
		c := pt.count
		resp.Prototypes = append(resp.Prototypes, server.PrototypeSummary{
			Index: pi, Dist: p.Dist, Vertices: len(pt.verts), MatchCount: &c, Exact: true,
		})
		resp.Labels += int64(len(pt.verts))
		if vectors {
			for _, v := range pt.verts {
				key := strconv.FormatUint(uint64(v), 10)
				resp.Vectors[key] = append(resp.Vectors[key], pi)
			}
		}
	}
	return resp, nil
}

// matches reports the total match count over a response's prototypes.
func matches(r *server.MatchResponse) int64 {
	var n int64
	for _, p := range r.Prototypes {
		if p.MatchCount != nil {
			n += *p.MatchCount
		}
	}
	return n
}

// decodeMatch parses a /match body with elapsed_ms zeroed, so two bodies
// compare equal exactly when everything but the timing agrees.
func decodeMatch(body []byte) (*server.MatchResponse, error) {
	var r server.MatchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode /match body: %w", err)
	}
	r.ElapsedMS = 0
	return &r, nil
}

// checkMatch compares a /match body against the oracle's prediction.
func checkMatch(body []byte, want *server.MatchResponse) error {
	got, err := decodeMatch(body)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("response differs from the oracle: got %d prototypes / %d labels / %d matches, want %d / %d / %d",
			len(got.Prototypes), got.Labels, matches(got), len(want.Prototypes), want.Labels, matches(want))
	}
	return nil
}
