package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"approxmatch/internal/datagen"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
	"approxmatch/internal/prototype"
	"approxmatch/internal/rmat"
)

// Every input of a run — graph, query pool, request streams and ingest
// batches — is a pure function of the seed. The graph follows
// datagen.RMATWithPattern (an R-MAT Graph500 graph with degree labels, the
// paper's RMAT-1 template planted exact and at one and two deletions), with
// the seed threaded through instead of that function's fixed seeds, plus a
// few shape templates over the same top degree labels so the query pool is
// not one template's prototypes alone.

// poolK is the largest edit distance a pool key asks for.
const poolK = 2

// base is one planted template family.
type base struct {
	name string
	t    *pattern.Template
	// exact instances are planted whole, as many with one edge missing
	// and half as many with two: RMATWithPattern's 1:1:½ mix.
	exact int
}

// planted records what generation put into the graph, for the report and
// for ingest batches that must hit planted regions.
type planted struct {
	Exact, Del1, Del2 int
	edges             []graph.Edge
	verts             []graph.VertexID
}

// inputs is one seed's graph and the templates planted into it.
type inputs struct {
	scale   int
	g       *graph.Graph // file (external) ids; amatchd relabels internally
	top     [3]graph.Label
	bases   []base
	planted map[string]*planted
}

// generate builds the seeded graph: an R-MAT base at the given scale with
// every base template planted into it.
func generate(seed int64, scale int) *inputs {
	g0 := rmat.Generate(rmat.Graph500(scale, seed))
	r1 := datagen.RMAT1(g0)
	in := &inputs{scale: scale, planted: map[string]*planted{}}
	in.top = [3]graph.Label{r1.Label(0), r1.Label(1), r1.Label(2)}
	l0, l1, l2 := in.top[0], in.top[1], in.top[2]
	n := g0.NumVertices() / 256
	if n < 4 {
		n = 4
	}
	in.bases = []base{
		{"rmat1", r1, n},
		{"house", pattern.House([5]graph.Label{l0, l1, l2, l1, l0}), n / 4},
		{"diamond", pattern.Diamond([4]graph.Label{l0, l1, l2, l0}), n / 4},
		{"cycle5", pattern.CycleN([]graph.Label{l0, l1, l2, l1, l2}), n / 4},
		{"clique4", pattern.CliqueN([]graph.Label{l0, l1, l2, l1}), n / 4},
	}

	b := graph.NewBuilder(0)
	for v := 0; v < g0.NumVertices(); v++ {
		b.AddVertex(g0.Label(graph.VertexID(v)))
	}
	for _, e := range g0.Edges() {
		b.AddEdge(e.U, e.V)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 7700))
	for _, bs := range in.bases {
		p := &planted{Exact: bs.exact, Del1: bs.exact, Del2: bs.exact / 2}
		record := func(tuples [][]graph.VertexID) {
			for _, tu := range tuples {
				p.verts = append(p.verts, tu...)
			}
		}
		record(datagen.Plant(rng, b, bs.t, p.Exact))
		record(datagen.PlantPartial(rng, b, bs.t, p.Del1, 1))
		record(datagen.PlantPartial(rng, b, bs.t, p.Del2, 2))
		in.planted[bs.name] = p
	}
	in.g = b.Build()
	for _, bs := range in.bases {
		p := in.planted[bs.name]
		// Planted edges present in the graph: the ingest generator deletes
		// and restores these so standing results really change.
		for i := 0; i < len(p.verts); i += bs.t.NumVertices() {
			tu := p.verts[i : i+bs.t.NumVertices()]
			for _, e := range bs.t.Edges() {
				u, v := tu[e.I], tu[e.J]
				if in.g.HasEdge(u, v) {
					p.edges = append(p.edges, normEdge(u, v))
				}
			}
		}
	}
	return in
}

func normEdge(u, v graph.VertexID) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

// poolKey is one distinct query: a template (already in canonical form, so
// the server's prototype indices equal prototype.Generate(tpl, k)'s) at one
// edit distance. Vectors are requested on a fixed share of keys.
type poolKey struct {
	Base    string
	Proto   int // index in prototype.Generate(base, poolK)
	K       int
	Vectors bool
	tpl     *pattern.Template
	text    string
	canon   string // pattern.CanonicalKey(tpl) + "|k"; unique within a pool
}

// vectorsEvery requests vectors on every vectorsEvery-th key in canonical
// order, so the share is fixed and independent of the seed's shuffle.
const vectorsEvery = 4

// buildPool returns every connected prototype of every base template at
// every k in 0..poolK at which removing k edges can leave it connected (so
// each key's k adds prototypes), deduplicated by canonical key and sorted
// by it.
func buildPool(in *inputs) ([]*poolKey, error) {
	seen := map[string]bool{}
	var pool []*poolKey
	for _, bs := range in.bases {
		set, err := prototype.Generate(bs.t, poolK)
		if err != nil {
			return nil, fmt.Errorf("prototypes of %s: %w", bs.name, err)
		}
		for pi, p := range set.Protos {
			ct, _ := pattern.CanonicalForm(p.Template)
			if again, _ := pattern.CanonicalForm(ct); templateText(again) != templateText(ct) {
				return nil, fmt.Errorf("%s proto %d: canonical form is not a fixed point", bs.name, pi)
			}
			for k := 0; k <= poolK; k++ {
				if sub, err := prototype.Generate(ct, k); err != nil || sub.MaxDist < k {
					break
				}
				key := fmt.Sprintf("%s|%d", pattern.CanonicalKey(ct), k)
				if seen[key] {
					continue
				}
				seen[key] = true
				pool = append(pool, &poolKey{Base: bs.name, Proto: pi, K: k, tpl: ct, text: templateText(ct), canon: key})
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].canon < pool[j].canon })
	for i, pk := range pool {
		pk.Vectors = i%vectorsEvery == 0
	}
	return pool, nil
}

func templateText(t *pattern.Template) string {
	var buf bytes.Buffer
	if err := pattern.Write(&buf, t); err != nil {
		panic(err) // Write fails only on a broken writer; bytes.Buffer never fails
	}
	return buf.String()
}

// coldStream is the cold-bulk request order: a seeded shuffle of the whole
// pool, so no canonical key repeats within a run.
func coldStream(seed int64, pool []*poolKey) []int {
	return rand.New(rand.NewSource(seed*31 + 1)).Perm(len(pool))
}

// hotKeys is how many pool keys the hot-repeat workload cycles through;
// hotVariants is how many random isomorphic relabellings each key gets.
// The keys are every hotStride-th pool key in canonical order, the same for
// every seed so the working set's mix does not move with it; hotStride is
// coprime to vectorsEvery, so a quarter of them ask for vectors, as in the
// pool.
const (
	hotKeys     = 16
	hotVariants = 16
	hotStride   = 7
)

// hotRequest is one hot-repeat request, the template text in it and the
// pool key it relabels.
type hotRequest struct {
	key  int
	text string
	body []byte
}

// hotStream returns the hot-repeat working set, its request variants —
// each a seeded random vertex relabelling with shuffled vertex and edge
// order — and the seeded order to send them in.
func hotStream(seed int64, pool []*poolKey, n int) (keys []int, variants []hotRequest, order []int32) {
	rng := rand.New(rand.NewSource(seed*31 + 2))
	for i := 0; i < len(pool) && len(keys) < hotKeys; i += hotStride {
		keys = append(keys, i)
	}
	for _, ki := range keys {
		pk := pool[ki]
		for j := 0; j < hotVariants; j++ {
			text := relabelText(rng, pk.tpl)
			variants = append(variants, hotRequest{key: ki, text: text, body: matchBody(text, pk.K, pk.Vectors)})
		}
	}
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(rng.Intn(len(variants)))
	}
	return keys, variants, order
}

// relabelText renders t under a random vertex permutation, listing vertices
// and edges in random order — an isomorphic, textually distinct template.
func relabelText(rng *rand.Rand, t *pattern.Template) string {
	n := t.NumVertices()
	perm := rng.Perm(n)
	var buf bytes.Buffer
	for _, q := range rng.Perm(n) {
		fmt.Fprintf(&buf, "v %d %d\n", perm[q], t.Label(q))
	}
	edges := t.Edges()
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		a, b := perm[e.I], perm[e.J]
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		fmt.Fprintf(&buf, "e %d %d\n", a, b)
	}
	return buf.String()
}

// ingestBatch is one /ingest body in external ids.
type ingestBatch struct {
	Insert  [][]int64 `json:"insert"`
	Delete  [][]int64 `json:"delete"`
	Relabel [][]int64 `json:"relabel"`
}

func (b *ingestBatch) delta() *graph.Delta {
	db := graph.NewDeltaBuilder()
	for _, r := range b.Insert {
		db.InsertEdge(graph.VertexID(r[0]), graph.VertexID(r[1]))
	}
	for _, r := range b.Delete {
		db.DeleteEdge(graph.VertexID(r[0]), graph.VertexID(r[1]))
	}
	for _, r := range b.Relabel {
		db.RelabelVertex(graph.VertexID(r[0]), graph.Label(r[1]))
	}
	return db.Delta()
}

// genBatches returns n small mutation batches, each valid against the graph
// the previous ones produced. Every batch deletes one present planted edge
// and one random edge, restores one earlier-deleted planted edge when there
// is one, inserts one random absent edge and relabels one vertex (a planted
// one every other batch) to a top label — so standing results change. It
// calls visit with each batch and the mirror graph after it.
func genBatches(seed int64, in *inputs, n int, visit func(i int, b *ingestBatch, mirror *graph.Graph) error) error {
	rng := rand.New(rand.NewSource(seed*31 + 3))
	var plantedEdges []graph.Edge
	var plantedVerts []graph.VertexID
	for _, bs := range in.bases {
		plantedEdges = append(plantedEdges, in.planted[bs.name].edges...)
		plantedVerts = append(plantedVerts, in.planted[bs.name].verts...)
	}
	g := in.g
	nv := g.NumVertices()
	var deleted []graph.Edge // planted edges currently absent
	for i := 0; i < n; i++ {
		var b ingestBatch
		used := map[graph.Edge]bool{}
		add := func(rows *[][]int64, e graph.Edge) {
			used[e] = true
			*rows = append(*rows, []int64{int64(e.U), int64(e.V)})
		}
		for try := 0; try < 64; try++ {
			e := plantedEdges[rng.Intn(len(plantedEdges))]
			if g.HasEdge(e.U, e.V) {
				add(&b.Delete, e)
				deleted = append(deleted, e)
				break
			}
		}
		for try := 0; try < 64; try++ {
			u := graph.VertexID(rng.Intn(nv))
			nb := g.Neighbors(u)
			if len(nb) == 0 {
				continue
			}
			e := normEdge(u, nb[rng.Intn(len(nb))])
			if !used[e] {
				add(&b.Delete, e)
				break
			}
		}
		if len(deleted) > 1 {
			// Restore an edge deleted by an earlier batch (never this one's).
			j := rng.Intn(len(deleted) - 1)
			e := deleted[j]
			if !used[e] && !g.HasEdge(e.U, e.V) {
				add(&b.Insert, e)
				deleted = append(deleted[:j], deleted[j+1:]...)
			}
		}
		for try := 0; try < 64; try++ {
			u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
			e := normEdge(u, v)
			if u != v && !used[e] && !g.HasEdge(u, v) {
				add(&b.Insert, e)
				break
			}
		}
		rv := graph.VertexID(rng.Intn(nv))
		if i%2 == 0 {
			rv = plantedVerts[rng.Intn(len(plantedVerts))]
		}
		b.Relabel = append(b.Relabel, []int64{int64(rv), int64(in.top[rng.Intn(len(in.top))])})

		ng, _, err := graph.ApplyDelta(g, b.delta())
		if err != nil {
			return fmt.Errorf("batch %d does not apply to its mirror: %w", i, err)
		}
		g = ng
		if err := visit(i, &b, g); err != nil {
			return err
		}
	}
	return nil
}
