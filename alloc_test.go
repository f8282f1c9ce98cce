package lccs

import (
	"testing"
)

// allocWorkload builds a clustered dataset plus queries derived from
// perturbed data points.
func allocWorkload(seed uint64, n, d int) (data, queries [][]float32) {
	data, g := testData(seed, n, d, 8, 0.5)
	queries = make([][]float32, 32)
	for i := range queries {
		base := data[g.IntN(n)]
		q := make([]float32, d)
		for j := range q {
			q[j] = base[j] + float32(g.NormFloat64()*0.1)
		}
		queries[i] = q
	}
	return data, queries
}

// warmSearcher runs enough queries through ix to grow every pooled
// buffer (searcher heaps, hash-string and result buffers, shard lists)
// to its steady-state working size, returning a reusable result row.
func warmSearcher(tb testing.TB, ix Searcher, queries [][]float32, k, lambda int) []Neighbor {
	tb.Helper()
	var dst []Neighbor
	var err error
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			dst, err = ix.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	return dst
}

// TestSearchZeroAllocIndex pins the tentpole property on the single
// Index: a warmed steady-state SearchCostInto with a reused dst and nil
// cost and trace performs zero heap allocations per query. GOMAXPROCS is held at 1 for the measurement so
// a mid-run GC cannot strip the sync.Pool and charge a pool refill to
// the measured function.
func TestSearchZeroAllocIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(41, 2000, 12)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	dst := warmSearcher(t, ix, queries, k, lambda)

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = ix.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Index.SearchCostInto: %v allocs/op, want 0", allocs)
	}
}

// TestSearchZeroAllocSharded pins the same property across the shard
// fan-out: sequential per-shard search, pooled per-shard lists, and the
// reusable tournament merge together make ShardedIndex.SearchCostInto
// allocation-free at steady state.
func TestSearchZeroAllocSharded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(42, 2000, 12)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	dst := warmSearcher(t, sx, queries, k, lambda)

	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = sx.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ShardedIndex.SearchCostInto: %v allocs/op, want 0", allocs)
	}
}

// TestSearchZeroAllocSQ8 extends the zero-allocation gate to the
// quantized search path: the SQ8 gather (pooled adjusted-query state
// and score buffers) plus the exact re-rank must add no per-query heap
// traffic on either facade.
func TestSearchZeroAllocSQ8(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(45, 2000, 12)
	const k, lambda = 10, 40
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3, Quantize: QuantizeSQ8})
	if err != nil {
		t.Fatal(err)
	}
	if kind, rerank := ix.Quantization(); kind != QuantizeSQ8 || rerank <= 0 {
		t.Fatalf("Quantization() = (%q, %d), want active sq8", kind, rerank)
	}
	dst := warmSearcher(t, ix, queries, k, lambda)
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = ix.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quantized Index.SearchCostInto: %v allocs/op, want 0", allocs)
	}

	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3, Quantize: QuantizeSQ8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst = warmSearcher(t, sx, queries, k, lambda)
	qi = 0
	allocs = testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		dst, err = sx.SearchCostInto(q, k, lambda, nil, dst, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quantized ShardedIndex.SearchCostInto: %v allocs/op, want 0", allocs)
	}
}

// TestSearchAllocBoundAllocatingAPI bounds the classic allocating Search
// API: after the pooled-context refactor the only per-call allocation
// left should be the returned result slice (and its growth), not the
// internal scratch.
func TestSearchAllocBoundAllocatingAPI(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(43, 2000, 12)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	warmSearcher(t, ix, queries, k, lambda)
	qi := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := queries[qi%len(queries)]
		qi++
		if _, err := ix.SearchBudget(q, k, lambda); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Index.SearchBudget: %v allocs/op, want ≤ 2 (result slice only)", allocs)
	}
}

// TestSearchBatchAllocBound bounds the batch engine: per query, the only
// allocations should be the caller-owned result row (plus a small
// constant for the worker pool and the out/err tables).
func TestSearchBatchAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(44, 2000, 12)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k, lambda = 10, 40
	if _, err := sx.SearchBatchBudget(queries, k, lambda); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sx.SearchBatchBudget(queries, k, lambda); err != nil {
			t.Fatal(err)
		}
	})
	perQuery := allocs / float64(len(queries))
	// One result row per query is inherent to the API; the bound allows
	// it plus batch-engine overhead amortized across the batch.
	if perQuery > 4 {
		t.Fatalf("SearchBatchBudget: %.2f allocs per query (%.0f total for %d queries), want ≤ 4",
			perQuery, allocs, len(queries))
	}
}

// TestSearchZeroAllocCosted extends the zero-allocation gate to the
// metered path: SearchCostInto with a live cost record (untraced,
// unfiltered) must stay allocation-free on every facade, so per-tenant
// usage accounting is literally free on the steady-state hot path.
func TestSearchZeroAllocCosted(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(46, 2000, 12)
	const k, lambda = 10, 40

	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A DynamicIndex mid-lifecycle: uneven shards, a buffer, and
	// tombstones in both.
	churn, err := NewDynamicIndex(data[:1500], Config{Metric: Euclidean, M: 16, Seed: 3}, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data[1500:] {
		if _, err := churn.Add(v); err != nil {
			t.Fatal(err)
		}
		if i == 299 {
			churn.WaitRebuild()
		}
	}
	for _, id := range []int{4, 700, 1600, 1900, 1999} {
		churn.Delete(id)
	}
	if churn.Shards() != 2 || churn.Buffered() != 200 {
		t.Fatalf("churn fixture: %d shards, %d buffered", churn.Shards(), churn.Buffered())
	}

	var co Cost
	for _, tc := range []struct {
		name string
		cs   CostSearcher
	}{{"Index", ix}, {"ShardedIndex", sx}, {"DynamicIndex", dx}, {"DynamicIndex/churn", churn}} {
		// Warm the pooled scratch through the metered call itself.
		var dst []Neighbor
		for round := 0; round < 3; round++ {
			for _, q := range queries {
				co.Reset()
				if dst, err = tc.cs.SearchCostInto(q, k, lambda, nil, dst, &co, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if co.Comparisons <= 0 || co.BytesScanned <= 0 {
			t.Fatalf("%s: cost record not populated: %+v", tc.name, co)
		}
		qi := 0
		allocs := testing.AllocsPerRun(200, func() {
			q := queries[qi%len(queries)]
			qi++
			co.Reset()
			dst, err = tc.cs.SearchCostInto(q, k, lambda, nil, dst, &co, nil)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s.SearchCostInto: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestSearchZeroAllocPostings extends the allocation gate to selective
// filters: a warmed filtered query answered from the shard postings
// must allocate no more than the filtered CSA drain, which allocates
// nothing — on every facade, metered and not. The Cost record proves
// which plan ran: the postings path performs no hash-string
// comparisons, the CSA drain (forced by a range-only filter) does.
func TestSearchZeroAllocPostings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation; run without -race")
	}
	data, queries := allocWorkload(47, 2000, 12)
	attrs := make([]Attrs, len(data))
	for i := range attrs {
		attrs[i] = Attrs{"tenant": IntAttr(int64(i % 100)), "pos": IntAttr(int64(i))}
	}
	cfg := Config{Metric: Euclidean, M: 16, Seed: 3}
	const k, lambda = 10, 40

	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewShardedIndexWithAttrs(data, attrs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := NewDynamicIndex(nil, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dx.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dx.WaitRebuild()

	selective := &Filter{Terms: []FilterTerm{EqInt("tenant", 7)}}
	lo, hi := int64(100), int64(1900)
	rangeOnly := &Filter{Terms: []FilterTerm{Range("pos", &lo, &hi)}}
	for _, tc := range []struct {
		name string
		s    CostSearcher
	}{{"Index", ix}, {"ShardedIndex", sx}, {"DynamicIndex", dx}} {
		measure := func(f *Filter, co *Cost) float64 {
			var dst []Neighbor
			run := func(q []float32) {
				co.Reset()
				if dst, err = tc.s.SearchCostInto(q, k, lambda, f, dst, co, nil); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					run(q)
				}
			}
			qi := 0
			return testing.AllocsPerRun(200, func() {
				run(queries[qi%len(queries)])
				qi++
			})
		}
		var co Cost
		csa := measure(rangeOnly, &co)
		if co.Comparisons == 0 {
			t.Fatalf("%s: range-only filter did not drain the CSA: %+v", tc.name, co)
		}
		postings := measure(selective, &co)
		if co.Candidates == 0 || (tc.name != "DynamicIndex" && co.Comparisons != 0) {
			t.Fatalf("%s: selective filter did not take the postings path: %+v", tc.name, co)
		}
		if postings > csa || postings != 0 {
			t.Fatalf("%s: postings path %v allocs/op, CSA path %v, want 0", tc.name, postings, csa)
		}
		if plain := measure(selective, nil); plain != 0 {
			t.Fatalf("%s.SearchCostInto (unmetered): %v allocs/op on the postings path, want 0", tc.name, plain)
		}
	}
}
