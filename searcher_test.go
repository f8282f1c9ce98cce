package lccs

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// searcherFixtures builds the three facades over identical seeded data
// with one fully resolved configuration, so their hashing is
// seed-equivalent.
func searcherFixtures(t *testing.T, data [][]float32, cfg Config) map[string]Searcher {
	t.Helper()
	ix, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewShardedIndex(data, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Searcher{"Index": ix, "ShardedIndex": sx, "DynamicIndex": dyn, "UnevenDynamicIndex": unevenDynamic(t, data, cfg)}
}

// unevenDynamic builds a DynamicIndex over data whose sources are
// uneven: a base shard over all but the last 15% of the rows, a
// background-built delta shard of 10%, and the last 5% left in the
// unindexed buffer.
func unevenDynamic(t *testing.T, data [][]float32, cfg Config) *DynamicIndex {
	t.Helper()
	n := len(data)
	base, delta := n-n*15/100, n*10/100
	dyn, err := NewDynamicIndex(data[:base], cfg, delta)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data[base:] {
		must(dyn.Add(v))
		if i == delta-1 {
			dyn.WaitRebuild() // freeze exactly the first delta inserts
		}
	}
	if dyn.Shards() != 2 || dyn.Buffered() != n-base-delta {
		t.Fatalf("uneven fixture: %d shards, %d buffered", dyn.Shards(), dyn.Buffered())
	}
	return dyn
}

// TestSearcherConformanceIdenticalResults: at an exhaustive candidate
// budget every facade verifies every vector, so Index, ShardedIndex,
// and DynamicIndex must return identical (id, distance) lists on
// identical seeded data — the Searcher interface's core contract.
func TestSearcherConformanceIdenticalResults(t *testing.T) {
	data, g := testData(91, 600, 10, 6, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 17}
	facades := searcherFixtures(t, data, cfg)

	const k = 8
	exhaustive := len(data) // every shard's ⌈λ·n_s/n⌉ share covers its rows
	for qi := 0; qi < 12; qi++ {
		q := g.GaussianVector(10)
		want := must(facades["Index"].SearchBudget(q, k, exhaustive))
		for name, s := range facades {
			got := must(s.SearchBudget(q, k, exhaustive))
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", name, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d pos %d: %+v, want %+v", name, qi, i, got[i], want[i])
				}
			}
		}
	}

	// Batch answers must equal per-query answers on every facade.
	queries := make([][]float32, 6)
	for i := range queries {
		queries[i] = g.GaussianVector(10)
	}
	for name, s := range facades {
		rows := must(s.SearchBatchBudget(queries, k, exhaustive))
		for i, q := range queries {
			seq := must(s.SearchBudget(q, k, exhaustive))
			if len(rows[i]) != len(seq) {
				t.Fatalf("%s batch row %d: lengths differ", name, i)
			}
			for j := range seq {
				if rows[i][j] != seq[j] {
					t.Fatalf("%s batch row %d pos %d: %+v vs %+v", name, i, j, rows[i][j], seq[j])
				}
			}
		}
	}
}

// TestSearcherConformanceTombstoneFiltering extends the conformance
// contract to the deletion lifecycle: with tombstones in place, the
// DynamicIndex and the ShardedIndex snapshot derived from it must
// agree with each other at an exhaustive budget AND with a brute-force
// scan over only the live vectors — deleted ids appear nowhere, live
// ids keep their stable values.
func TestSearcherConformanceTombstoneFiltering(t *testing.T) {
	data, g := testData(95, 500, 10, 5, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 23}
	dyn, err := NewDynamicIndex(data, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{}
	for _, id := range []int{0, 13, 14, 99, 100, 101, 250, 499} {
		if !dyn.Delete(id) {
			t.Fatalf("delete %d failed", id)
		}
		dead[id] = true
	}
	_, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	facades := map[string]Searcher{"DynamicIndex": dyn, "Snapshot": snap}

	const k = 8
	exhaustive := 3 * len(data)
	for qi := 0; qi < 12; qi++ {
		q := g.GaussianVector(10)
		// Brute-force reference over live vectors only.
		type ref struct {
			id   int
			dist float64
		}
		var refs []ref
		for id, v := range data {
			if !dead[id] {
				refs = append(refs, ref{id, dyn.Distance(q, v)})
			}
		}
		sort.Slice(refs, func(i, j int) bool {
			if refs[i].dist != refs[j].dist {
				return refs[i].dist < refs[j].dist
			}
			return refs[i].id < refs[j].id
		})
		for name, s := range facades {
			got := must(s.SearchBudget(q, k, exhaustive))
			if len(got) != k {
				t.Fatalf("%s query %d: %d results, want %d", name, qi, len(got), k)
			}
			for i, nb := range got {
				if dead[nb.ID] {
					t.Fatalf("%s query %d: deleted id %d surfaced", name, qi, nb.ID)
				}
				if nb.ID != refs[i].id || nb.Dist != refs[i].dist {
					t.Fatalf("%s query %d pos %d: got (%d, %v), brute force says (%d, %v)",
						name, qi, i, nb.ID, nb.Dist, refs[i].id, refs[i].dist)
				}
			}
		}
	}
}

// TestFacadeValidationConformance: all three facades answer the same
// invalid input with the same typed error — never a silent empty
// result.
func TestFacadeValidationConformance(t *testing.T) {
	data, _ := testData(92, 120, 8, 4, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 18}
	facades := searcherFixtures(t, data, cfg)

	valid := data[0]
	withNaN := append([]float32(nil), valid...)
	withNaN[3] = float32(math.NaN())
	withInf := append([]float32(nil), valid...)
	withInf[0] = float32(math.Inf(1))
	cases := []struct {
		name    string
		q       []float32
		k, l    int
		wantErr error
	}{
		{"k=0", valid, 0, 50, ErrInvalidK},
		{"k<0", valid, -3, 50, ErrInvalidK},
		{"lambda=0", valid, 5, 0, ErrInvalidBudget},
		{"lambda<0", valid, 5, -1, ErrInvalidBudget},
		{"nil query", nil, 5, 50, ErrEmptyQuery},
		{"empty query", []float32{}, 5, 50, ErrEmptyQuery},
		{"dim mismatch", []float32{1, 2, 3}, 5, 50, ErrDimensionMismatch},
		{"NaN component", withNaN, 5, 50, ErrNonFiniteQuery},
		{"+Inf component", withInf, 5, 50, ErrNonFiniteQuery},
	}
	for name, s := range facades {
		for _, c := range cases {
			if _, err := s.SearchBudget(c.q, c.k, c.l); !errors.Is(err, c.wantErr) {
				t.Errorf("%s/SearchBudget/%s: err=%v, want %v", name, c.name, err, c.wantErr)
			}
			if _, err := s.SearchBatchBudget([][]float32{c.q}, c.k, c.l); !errors.Is(err, c.wantErr) {
				t.Errorf("%s/SearchBatchBudget/%s: err=%v, want %v", name, c.name, err, c.wantErr)
			}
		}
		// Even an empty batch enforces the k/λ contract.
		if _, err := s.SearchBatchBudget(nil, 0, 50); !errors.Is(err, ErrInvalidK) {
			t.Errorf("%s/SearchBatchBudget empty k=0: err=%v, want ErrInvalidK", name, err)
		}
		if _, err := s.SearchBatchBudget([][]float32{}, 5, -1); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("%s/SearchBatchBudget empty lambda<0: err=%v, want ErrInvalidBudget", name, err)
		}
		// The search body and the cursor path hold the same contract.
		if _, err := s.SearchCostInto(withNaN, 5, 0, nil, nil, nil, nil); !errors.Is(err, ErrNonFiniteQuery) {
			t.Errorf("%s/SearchCostInto NaN component: err=%v, want ErrNonFiniteQuery", name, err)
		}
		if _, _, err := s.SearchCursor(withInf, 5, 0, nil, ""); !errors.Is(err, ErrNonFiniteQuery) {
			t.Errorf("%s/SearchCursor +Inf component: err=%v, want ErrNonFiniteQuery", name, err)
		}
		// Search (default budget) applies the same k/query checks.
		if _, err := s.Search(valid, 0); !errors.Is(err, ErrInvalidK) {
			t.Errorf("%s/Search k=0: err=%v, want ErrInvalidK", name, err)
		}
		if _, err := s.Search(nil, 3); !errors.Is(err, ErrEmptyQuery) {
			t.Errorf("%s/Search nil query: err=%v, want ErrEmptyQuery", name, err)
		}
		// Valid input still succeeds after all that.
		if res := must(s.Search(valid, 3)); len(res) != 3 {
			t.Errorf("%s: valid search returned %d results", name, len(res))
		}
	}
}

// TestSearchMethodSet guards the one query path: every facade's
// exported Search* methods are exactly the Searcher set, all thin
// callers of SearchCostInto, so per-feature search variants cannot
// grow back unnoticed.
func TestSearchMethodSet(t *testing.T) {
	want := []string{"Search", "SearchBatch", "SearchBatchBudget", "SearchBudget", "SearchCostInto", "SearchCursor"}
	for _, v := range []any{(*Index)(nil), (*ShardedIndex)(nil), (*DynamicIndex)(nil), (*DurableIndex)(nil)} {
		typ := reflect.TypeOf(v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") {
				got = append(got, name)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v Search methods = %v, want %v", typ, got, want)
		}
	}
}

func TestParseMetric(t *testing.T) {
	good := map[string]MetricKind{
		"euclidean": Euclidean, "l2": Euclidean, "L2": Euclidean,
		"angular": Angular, "cosine": Angular,
		"hamming": Hamming, " hamming ": Hamming,
		"jaccard": Jaccard, "minhash": Jaccard, "Jaccard": Jaccard,
	}
	for in, want := range good {
		got, err := ParseMetric(in)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "chebyshev", "l3"} {
		if _, err := ParseMetric(in); err == nil {
			t.Errorf("ParseMetric(%q) should fail", in)
		}
	}
}

// TestDynamicSnapshotRoundTrip: a snapshot taken with buffered inserts
// persists through the LCCSPKG2 container and serves identical results
// after a reload — the serve daemon's shutdown path.
func TestDynamicSnapshotRoundTrip(t *testing.T) {
	data, g := testData(93, 300, 8, 4, 0.5)
	dyn, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 19}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Cross the threshold once (background shard) and leave a tail in
	// the buffer, so the snapshot exercises both paths.
	var lastID int
	for i := 0; i < 130; i++ {
		if lastID, err = dyn.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	if dyn.Buffered() == 0 {
		t.Fatal("test setup: expected a non-empty buffer")
	}

	vectors, sx, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(vectors) != 430 || sx.Len() != 430 {
		t.Fatalf("snapshot covers %d/%d vectors, want 430", len(vectors), sx.Len())
	}
	path := filepath.Join(t.TempDir(), "snap.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path, vectors)
	if err != nil {
		t.Fatal(err)
	}
	// The buffered insert is preserved: it is findable at distance 0
	// under its stable id, before and after the round trip.
	for _, s := range []Searcher{sx, loaded} {
		res := must(s.SearchBudget(vectors[lastID], 1, 3*len(vectors)))
		if len(res) != 1 || res[0].ID != lastID || res[0].Dist != 0 {
			t.Fatalf("buffered insert lost after snapshot: %+v", res)
		}
	}
	// Full parity between the in-memory snapshot and the reloaded one.
	for qi := 0; qi < 10; qi++ {
		q := g.GaussianVector(8)
		a := must(sx.SearchBudget(q, 5, 60))
		b := must(loaded.SearchBudget(q, 5, 60))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	// The snapshot did not disturb the live index.
	res := must(dyn.Search(vectors[lastID], 1))
	if len(res) != 1 || res[0].ID != lastID {
		t.Fatalf("live index broken after snapshot: %+v", res)
	}
}

// TestDynamicFromShardedStaysWritable: the warm-restart path — a
// snapshot reloaded with LoadSharded and wrapped back into a
// DynamicIndex keeps serving inserts, so writability survives any
// number of snapshot/restart cycles.
func TestDynamicFromShardedStaysWritable(t *testing.T) {
	data, g := testData(94, 200, 8, 4, 0.5)
	dyn, err := NewDynamicIndex(data, Config{Metric: Euclidean, M: 16, Seed: 21}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	firstInsert, err := dyn.Add(g.GaussianVector(8))
	if err != nil {
		t.Fatal(err)
	}
	vectors, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.lccs")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path, vectors)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := NewDynamicIndexFromSharded(loaded, vectors, 50)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() != 201 || warm.Buffered() != 0 {
		t.Fatalf("Len=%d Buffered=%d", warm.Len(), warm.Buffered())
	}
	// The pre-restart insert is still served under its stable id.
	res := must(warm.SearchBudget(vectors[firstInsert], 1, 4*len(vectors)))
	if len(res) != 1 || res[0].ID != firstInsert || res[0].Dist != 0 {
		t.Fatalf("pre-restart insert lost: %+v", res)
	}
	// New inserts keep working, ids continue from the snapshot, and the
	// rebuild threshold still triggers background shard builds.
	v := g.GaussianVector(8)
	id, err := warm.Add(v)
	if err != nil {
		t.Fatal(err)
	}
	if id != 201 {
		t.Fatalf("post-restart id = %d, want 201", id)
	}
	res = must(warm.Search(v, 1))
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("post-restart insert not found: %+v", res)
	}
	for i := 0; i < 60; i++ {
		if _, err := warm.Add(g.GaussianVector(8)); err != nil {
			t.Fatal(err)
		}
	}
	warm.WaitRebuild()
	if warm.Buffered() >= 50 {
		t.Fatalf("Buffered=%d, background build never triggered", warm.Buffered())
	}

	// A mismatched data slice is rejected.
	if _, err := NewDynamicIndexFromSharded(loaded, vectors[:10], 0); err == nil {
		t.Fatal("short data slice should fail")
	}
}

// TestSnapshotEmptyDynamic: an empty dynamic index has nothing to
// persist and says so.
func TestSnapshotEmptyDynamic(t *testing.T) {
	dyn, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dyn.Snapshot(); err == nil {
		t.Fatal("empty snapshot should fail")
	}
}

// exactTopK is the brute-force reference: the k nearest rows of data in
// the canonical (distance, id) order.
func exactTopK(data [][]float32, q []float32, k int, dist func(a, b []float32) float64) []Neighbor {
	all := make([]Neighbor, len(data))
	for i, v := range data {
		all[i] = Neighbor{ID: i, Dist: dist(v, q)}
	}
	sortNeighbors(all)
	return all[:k]
}

// TestUnevenShardsExhaustiveBudget: λ = n verifies every row however
// uneven the shards are. The DynamicIndex holds a 2,900-row base shard
// and a 100-row delta shard built in the background; an equal ⌈λ/S⌉
// split would give the base shard barely half its rows. The one-shot
// search, a full cursor drain, the Snapshot ShardedIndex and its
// Save/LoadSharded round trip must all equal brute force.
func TestUnevenShardsExhaustiveBudget(t *testing.T) {
	const n, dim, k = 3000, 16, 10
	data, g := testData(97, n, dim, 8, 1.0)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 29}
	dyn, err := NewDynamicIndex(data[:2900], cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data[2900:] {
		must(dyn.Add(v))
	}
	dyn.WaitRebuild()
	if dyn.Shards() != 2 || dyn.Buffered() != 0 {
		t.Fatalf("fixture: %d shards, %d buffered; want 2, 0", dyn.Shards(), dyn.Buffered())
	}
	rows, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "uneven.lccs")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path, rows)
	if err != nil {
		t.Fatal(err)
	}
	facades := map[string]Searcher{"DynamicIndex": dyn, "Snapshot": snap, "Loaded": loaded}
	for qi := 0; qi < 50; qi++ {
		q := g.GaussianVector(dim)
		want := exactTopK(data, q, k, dyn.Distance)
		for name, s := range facades {
			if got := must(s.SearchBudget(q, k, n)); !neighborsEqual(got, want) {
				t.Fatalf("%s query %d at λ=n: got %v, want %v", name, qi, got, want)
			}
		}
		if qi%10 == 0 {
			// The drain at λ = n is the full exact ordering of every row.
			all := exactTopK(data, q, n, dyn.Distance)
			for name, s := range facades {
				if got := drainCursor(t, s, q, 200, n, nil); !neighborsEqual(got, all) {
					t.Fatalf("%s query %d: cursor drain at λ=n differs from brute force", name, qi)
				}
			}
		}
	}
}
