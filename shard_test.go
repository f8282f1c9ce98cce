package lccs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// sortedIDSet extracts result ids as a set for top-k set comparisons.
func sortedIDSet(res []Neighbor) map[int]bool {
	set := make(map[int]bool, len(res))
	for _, nb := range res {
		set[nb.ID] = true
	}
	return set
}

func TestShardedMatchesSingleIndexTopK(t *testing.T) {
	// At an exhaustive candidate budget both a single Index and a
	// ShardedIndex verify every vector, so the top-k sets must coincide
	// exactly (and match brute force) — the sharding changes the
	// partitioning, never the answer.
	data, g := testData(71, 1200, 10, 6, 0.5)
	cfg := Config{Metric: Euclidean, M: 24, Seed: 9}
	single, err := NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3, 4, 7} {
		sx, err := NewShardedIndex(data, cfg, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if sx.Shards() != shards {
			t.Fatalf("got %d shards, want %d", sx.Shards(), shards)
		}
		exhaustive := shards * len(data)
		for qi := 0; qi < 15; qi++ {
			q := g.GaussianVector(10)
			a := must(single.SearchBudget(q, 10, len(data)))
			b := must(sx.SearchBudget(q, 10, exhaustive))
			if len(a) != len(b) {
				t.Fatalf("shards=%d query %d: %d vs %d results", shards, qi, len(a), len(b))
			}
			want, got := sortedIDSet(a), sortedIDSet(b)
			for id := range want {
				if !got[id] {
					t.Fatalf("shards=%d query %d: id %d missing from sharded top-k", shards, qi, id)
				}
			}
			// Distances agree pointwise (both ascending).
			for i := range a {
				if a[i].Dist != b[i].Dist {
					t.Fatalf("shards=%d query %d pos %d: dist %v vs %v", shards, qi, i, a[i].Dist, b[i].Dist)
				}
			}
		}
	}
}

func TestShardedDeterminism(t *testing.T) {
	data, g := testData(72, 900, 8, 5, 0.5)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 11}
	a, err := NewShardedIndex(data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardedIndex(data, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 20; qi++ {
		q := g.GaussianVector(8)
		ra, rb := must(a.SearchBudget(q, 8, 64)), must(b.SearchBudget(q, 8, 64))
		if len(ra) != len(rb) {
			t.Fatalf("query %d: lengths %d vs %d", qi, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
	}
}

func TestShardedGlobalIDs(t *testing.T) {
	// Every vector must be findable under its global id: searching for a
	// stored vector with a generous budget returns it at distance 0.
	data, _ := testData(73, 500, 8, 50, 0.3)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 32, Seed: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(data); id += 37 {
		res := must(sx.SearchBudget(data[id], 1, 5*len(data)))
		if len(res) != 1 || res[0].Dist != 0 {
			t.Fatalf("id %d: %+v", id, res)
		}
		if sx.Distance(data[res[0].ID], data[id]) != 0 {
			t.Fatalf("id %d: returned id %d is not an exact match", id, res[0].ID)
		}
	}
}

func TestShardedConfigAndEdgeCases(t *testing.T) {
	data, _ := testData(74, 40, 6, 4, 0.5)
	// More shards than vectors: capped so every shard is non-empty.
	sx, err := NewShardedIndex(data[:3], Config{Metric: Euclidean, M: 8, Seed: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 3 || sx.Len() != 3 {
		t.Fatalf("Shards=%d Len=%d", sx.Shards(), sx.Len())
	}
	// shards <= 0 selects GOMAXPROCS (at least one shard).
	sx, err = NewShardedIndex(data, Config{Metric: Euclidean, M: 8, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() < 1 || sx.M() != 8 || sx.Len() != 40 || sx.Bytes() <= 0 {
		t.Fatalf("Shards=%d M=%d Len=%d Bytes=%d", sx.Shards(), sx.M(), sx.Len(), sx.Bytes())
	}
	if sx.BuildTime() < 0 {
		t.Fatal("negative build time")
	}
	ix, off := sx.Shard(0)
	if ix == nil || off != 0 {
		t.Fatalf("Shard(0) = %v, %d", ix, off)
	}
	// Degenerate queries surface typed errors, never silent empties.
	if _, err := sx.Search(data[0], 0); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("k=0: err=%v, want ErrInvalidK", err)
	}
	if _, err := sx.SearchBudget(data[0], 3, 0); !errors.Is(err, ErrInvalidBudget) {
		t.Fatalf("lambda=0: err=%v, want ErrInvalidBudget", err)
	}
	// Errors propagate.
	if _, err := NewShardedIndex(nil, Config{Metric: Euclidean}, 2); err == nil {
		t.Fatal("empty dataset should fail")
	}
	if _, err := NewShardedIndex(data, Config{Metric: "nope"}, 2); err == nil {
		t.Fatal("unknown metric should fail")
	}
}

func TestShardedMultiProbe(t *testing.T) {
	data, _ := testData(75, 600, 8, 6, 0.5)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Probes: 17, Seed: 13}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := must(sx.SearchBudget(data[42], 1, 3*len(data)))
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("multi-probe sharded self-search: %+v", res)
	}
}

func TestShardOffsets(t *testing.T) {
	cases := []struct {
		n, shards int
		want      []int
	}{
		{10, 1, []int{0, 10}},
		{10, 3, []int{0, 4, 7, 10}},
		{12, 4, []int{0, 3, 6, 9, 12}},
		{5, 5, []int{0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		got := shardOffsets(c.n, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("n=%d s=%d: %v", c.n, c.shards, got)
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("n=%d s=%d: %v want %v", c.n, c.shards, got, c.want)
			}
		}
	}
}

func TestShardedSaveLoadRoundTrip(t *testing.T) {
	data, g := testData(76, 800, 10, 5, 0.5)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 21}, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sharded.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSharded(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 4 || loaded.Len() != 800 || loaded.M() != 16 {
		t.Fatalf("shape after load: shards=%d len=%d m=%d", loaded.Shards(), loaded.Len(), loaded.M())
	}
	for qi := 0; qi < 10; qi++ {
		q := g.GaussianVector(10)
		a, b := must(sx.SearchBudget(q, 5, 80)), must(loaded.SearchBudget(q, 5, 80))
		if len(a) != len(b) {
			t.Fatalf("query %d: lengths differ", qi)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: %+v vs %+v", qi, i, a[i], b[i])
			}
		}
	}
	// Loading through the single-index API is refused with a clear error.
	if _, err := Load(path, data); err == nil {
		t.Fatal("Load should reject a sharded container")
	}
}

func TestLoadShardedAcceptsFormat1(t *testing.T) {
	data, _ := testData(77, 400, 8, 4, 0.5)
	ix, err := NewIndex(data, Config{Metric: Euclidean, M: 16, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "single.lccs")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	sx, err := LoadSharded(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 1 || sx.Len() != 400 {
		t.Fatalf("wrapped format-1: shards=%d len=%d", sx.Shards(), sx.Len())
	}
	a, b := must(ix.SearchBudget(data[7], 5, 60)), must(sx.SearchBudget(data[7], 5, 60))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pos %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLoadShardedRejectsCorruption(t *testing.T) {
	data, _ := testData(78, 300, 8, 4, 0.5)
	sx, err := NewShardedIndex(data, Config{Metric: Euclidean, M: 16, Seed: 23}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.lccs")
	if err := sx.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Truncations at several depths: mid-header, mid-shard-table,
	// mid-shard-blob. All must error, never panic.
	for _, frac := range []float64{0.001, 0.01, 0.3, 0.9} {
		cut := blob[:int(float64(len(blob))*frac)]
		if _, err := LoadSharded(write("cut.lccs", cut), data); err == nil {
			t.Fatalf("truncation at %.1f%% should fail", frac*100)
		}
	}
	// Corrupt shard count (bytes right after the config header).
	bad := append([]byte(nil), blob...)
	hdrEnd := len(pkgMagic2) + 4 + len(Euclidean) + 3*8 + 8 + 8
	bad[hdrEnd] = 0xFF
	bad[hdrEnd+1] = 0xFF
	if _, err := LoadSharded(write("badcount.lccs", bad), data); err == nil {
		t.Fatal("corrupt shard count should fail")
	}
	// Corrupt a shard size entry.
	bad = append([]byte(nil), blob...)
	bad[hdrEnd+4] = 0xEE
	if _, err := LoadSharded(write("badsize.lccs", bad), data); err == nil {
		t.Fatal("corrupt shard size should fail")
	}
	// Wrong data slice fails the per-shard hash spot check.
	other, _ := testData(979, 300, 8, 4, 0.5)
	if _, err := LoadSharded(path, other); err == nil {
		t.Fatal("different data should fail")
	}
	if _, err := LoadSharded(path, nil); err == nil {
		t.Fatal("nil data should fail")
	}
	// Nil vectors (right length, zero dimension) must error, not panic
	// inside the LSH family constructor.
	if _, err := LoadSharded(path, make([][]float32, 300)); err == nil {
		t.Fatal("zero-dimensional data should fail")
	}
	if _, err := LoadSharded(filepath.Join(dir, "missing.lccs"), data); err == nil {
		t.Fatal("missing file should fail")
	}
}

// TestShardFilteredSearchStandalone is the regression test for Shard(s)
// returning an Index whose filtered search matched no row (the
// attributes used to live only on the ShardedIndex): each shard's
// filtered SearchCostInto at λ ≥ n must equal brute force over that
// shard's own matching rows, in shard-local ids.
func TestShardFilteredSearchStandalone(t *testing.T) {
	const n, dim, k = 240, 8, 10
	data, attrs := filterTestData(n, dim)
	sx, err := NewShardedIndexWithAttrs(data, attrs, Config{Metric: Euclidean, M: 16, Seed: 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < sx.Shards(); s++ {
		shard, off := sx.Shard(s)
		rows, rowAttrs := data[off:off+shard.Len()], attrs[off:off+shard.Len()]
		for fname, f := range testFilters() {
			want := bruteFilter(rows, rowAttrs, nil, data[5], k, f, shard.Distance)
			got, err := shard.SearchCostInto(data[5], k, n, f, nil, nil, nil)
			if err != nil {
				t.Fatalf("shard %d/%s: %v", s, fname, err)
			}
			if !neighborsEqual(got, want) {
				t.Errorf("shard %d/%s: got %v, want %v", s, fname, got, want)
			}
			if f != nil && f.Terms[0].Key == "color" && f.Terms[0].Value.Str == "red" && len(got) == 0 {
				t.Errorf("shard %d/%s: no match, the shard lost its attributes", s, fname)
			}
		}
	}
}
