package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// testScale keeps generator tests fast; the benchmark runs at graphScale.
const testScale = 10

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 = refused
	}{
		{99, 90, 0},   // 9 samples beyond the 90th rank
		{100, 90, 90}, // exactly 10 beyond
		{1000, 90, 900},
		{19, 50, 0},
		{20, 50, 10},
		{0, 50, 0},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// streams renders the request streams and batches seed draws over fixed
// inputs in, so a seed that is not threaded into a generator shows.
func streams(t *testing.T, in *inputs, seed int64) map[string][]byte {
	t.Helper()
	pool, err := buildPool(in)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	var cold bytes.Buffer
	for _, i := range coldStream(seed, pool) {
		cold.Write(matchBody(pool[i].text, pool[i].K, pool[i].Vectors))
	}
	out["cold"] = cold.Bytes()
	_, variants, order := hotStream(seed, pool, 1000)
	var hot bytes.Buffer
	for _, i := range order {
		hot.Write(variants[i].body)
	}
	out["hot"] = hot.Bytes()
	var batches bytes.Buffer
	err = genBatches(seed, in, 20, func(_ int, b *ingestBatch, _ *graph.Graph) error {
		return json.NewEncoder(&batches).Encode(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	out["batches"] = batches.Bytes()
	return out
}

func graphBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var g bytes.Buffer
	if err := graph.WriteEdgeList(&g, generate(seed, testScale).g); err != nil {
		t.Fatal(err)
	}
	return g.Bytes()
}

func TestSeedDeterminesInputs(t *testing.T) {
	if a, again, other := graphBytes(t, 1), graphBytes(t, 1), graphBytes(t, 2); !bytes.Equal(a, again) {
		t.Error("seed 1 generated two different graphs")
	} else if bytes.Equal(a, other) {
		t.Error("seeds 1 and 2 generated the same graph")
	}
	in := generate(1, testScale)
	a, again, other := streams(t, in, 1), streams(t, in, 1), streams(t, in, 2)
	for name := range a {
		if !bytes.Equal(a[name], again[name]) {
			t.Errorf("%s: seed 1 produced different bytes on a second call", name)
		}
		if bytes.Equal(a[name], other[name]) {
			t.Errorf("%s: seeds 1 and 2 produced identical bytes", name)
		}
	}
}

func TestColdStreamNeverRepeatsCanonicalKey(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		in := generate(seed, testScale)
		pool, err := buildPool(in)
		if err != nil {
			t.Fatal(err)
		}
		stream := coldStream(seed, pool)
		if len(stream) != len(pool) {
			t.Fatalf("seed %d: stream has %d keys, pool %d", seed, len(stream), len(pool))
		}
		seen := map[string]bool{}
		for _, i := range stream {
			// Recompute the key from the text actually sent, as the server
			// does, rather than trusting the pool's bookkeeping.
			tpl, err := pattern.Parse(strings.NewReader(pool[i].text))
			if err != nil {
				t.Fatal(err)
			}
			ct, _ := pattern.CanonicalForm(tpl)
			key := fmt.Sprintf("%s|%d", pattern.CanonicalKey(ct), pool[i].K)
			if seen[key] {
				t.Fatalf("seed %d: canonical key repeats in the cold stream: %q", seed, key)
			}
			seen[key] = true
		}
	}
}

func TestBatchesValidateAgainstMirror(t *testing.T) {
	in := generate(1, testScale)
	mirror := in.g
	planted := map[graph.VertexID]bool{}
	for _, p := range in.planted {
		for _, v := range p.verts {
			planted[v] = true
		}
	}
	touchedPlanted := 0
	const n = 200
	err := genBatches(1, in, n, func(i int, b *ingestBatch, after *graph.Graph) error {
		// Decode the wire form, as amatchd does, and apply it to an
		// independent mirror.
		raw, err := json.Marshal(b)
		if err != nil {
			return err
		}
		var wire ingestBatch
		if err := json.Unmarshal(raw, &wire); err != nil {
			return err
		}
		next, _, err := graph.ApplyDelta(mirror, wire.delta())
		if err != nil {
			return fmt.Errorf("batch %d rejected by the mirror: %w", i, err)
		}
		if err := next.Validate(); err != nil {
			return err
		}
		if next.NumEdges() != after.NumEdges() {
			return fmt.Errorf("batch %d: mirror has %d edges, generator %d", i, next.NumEdges(), after.NumEdges())
		}
		if len(wire.Delete) == 0 || len(wire.Insert) == 0 || len(wire.Relabel) == 0 {
			return fmt.Errorf("batch %d lacks a delete, insert or relabel: %+v", i, wire)
		}
		for _, row := range append(wire.Delete, wire.Insert...) {
			if planted[graph.VertexID(row[0])] && planted[graph.VertexID(row[1])] {
				touchedPlanted++
				break
			}
		}
		mirror = next
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if touchedPlanted < n/2 {
		t.Errorf("only %d of %d batches touch a planted edge", touchedPlanted, n)
	}
}
