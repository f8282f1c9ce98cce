package lccs

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// filterTestData builds a deterministic dataset with metadata: color
// cycles red/green/blue, price is the row index, and every 7th row
// carries no metadata at all.
func filterTestData(n, dim int) ([][]float32, []Attrs) {
	rng := rand.New(rand.NewSource(42))
	data := make([][]float32, n)
	attrs := make([]Attrs, n)
	colors := []string{"red", "green", "blue"}
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()
		}
		data[i] = v
		if i%7 == 6 {
			continue // no metadata
		}
		attrs[i] = Attrs{
			"color": StrAttr(colors[i%3]),
			"price": IntAttr(int64(i)),
		}
	}
	return data, attrs
}

// bruteFilter computes the exact ranked answer over matching live rows.
func bruteFilter(data [][]float32, attrs []Attrs, live func(id int) bool, q []float32, k int, f *Filter, dist func(a, b []float32) float64) []Neighbor {
	var all []Neighbor
	for i, v := range data {
		if live != nil && !live(i) {
			continue
		}
		var a Attrs
		if i < len(attrs) {
			a = attrs[i]
		}
		if !f.Matches(a) {
			continue
		}
		all = append(all, Neighbor{ID: i, Dist: dist(q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// testFilters covers equality (string and int), ranges, conjunctions,
// and a never-matching predicate.
func testFilters() map[string]*Filter {
	lo, hi := int64(20), int64(120)
	return map[string]*Filter{
		"eq-str":     {Terms: []FilterTerm{EqStr("color", "red")}},
		"eq-int":     {Terms: []FilterTerm{EqInt("price", 33)}},
		"range":      {Terms: []FilterTerm{Range("price", &lo, &hi)}},
		"and":        {Terms: []FilterTerm{EqStr("color", "blue"), Range("price", &lo, nil)}},
		"none":       {Terms: []FilterTerm{EqStr("color", "magenta")}},
		"min-only":   {Terms: []FilterTerm{Range("price", &hi, nil)}},
		"unfiltered": nil,
	}
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// TestFilteredSearchExactAcrossFacades pins the acceptance criterion:
// at an exhaustive budget, filtered search on every facade returns
// exactly the brute-force ranked answer over matching live vectors.
func TestFilteredSearchExactAcrossFacades(t *testing.T) {
	const n, dim, k = 200, 8, 10
	data, attrs := filterTestData(n, dim)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, Budget: n}

	single, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndexWithAttrs(data, attrs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(nil, cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()

	facades := map[string]Searcher{
		"index":   single,
		"sharded": sharded,
		"dynamic": dyn,
	}
	q := data[3]
	for fname, f := range testFilters() {
		want := bruteFilter(data, attrs, nil, q, k, f, single.Distance)
		for facade, ix := range facades {
			got, err := ix.SearchCostInto(q, k, n, f, nil, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", facade, fname, err)
			}
			if !neighborsEqual(got, want) {
				t.Errorf("%s/%s: got %v, want %v", facade, fname, got, want)
			}
		}
	}
}

// TestFilteredSearchWithDeletes checks tombstoned rows never surface in
// filtered results and the remaining ranking stays exact.
func TestFilteredSearchWithDeletes(t *testing.T) {
	const n, dim, k = 150, 8, 10
	data, attrs := filterTestData(n, dim)
	cfg := Config{Metric: Euclidean, M: 16, Seed: 7, Budget: n}
	dyn, err := NewDynamicIndex(nil, cfg, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	deleted := map[int]bool{}
	for id := 0; id < n; id += 5 {
		if !dyn.Delete(id) {
			t.Fatalf("delete %d", id)
		}
		deleted[id] = true
	}
	live := func(id int) bool { return !deleted[id] }
	q := data[8]
	for fname, f := range testFilters() {
		want := bruteFilter(data, attrs, live, q, k, f, dyn.Distance)
		got, err := dyn.SearchCostInto(q, k, n, f, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", fname, err)
		}
		if !neighborsEqual(got, want) {
			t.Errorf("%s: got %v, want %v", fname, got, want)
		}
	}

	// The snapshot (→ ShardedIndex) must answer identically.
	_, sx, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for fname, f := range testFilters() {
		want := bruteFilter(data, attrs, live, q, k, f, dyn.Distance)
		got, err := sx.SearchCostInto(q, k, n, f, nil, nil, nil)
		if err != nil {
			t.Fatalf("snapshot/%s: %v", fname, err)
		}
		if !neighborsEqual(got, want) {
			t.Errorf("snapshot/%s: got %v, want %v", fname, got, want)
		}
	}
}

// TestFilterValidation pins the typed error for malformed filters.
func TestFilterValidation(t *testing.T) {
	data, attrs := filterTestData(30, 4)
	ix, err := NewIndexWithAttrs(data, attrs, Config{Metric: Euclidean, M: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []*Filter{
		{Terms: []FilterTerm{{Key: "", Op: FilterEq, Value: IntAttr(1)}}},
		{Terms: []FilterTerm{{Key: "x", Op: FilterRange}}},
		{Terms: []FilterTerm{{Key: "x", Op: FilterOp(99)}}},
	}
	for i, f := range bad {
		if _, err := ix.SearchCostInto(data[0], 3, 0, f, nil, nil, nil); !errors.Is(err, ErrInvalidFilter) {
			t.Errorf("bad filter %d: err = %v, want ErrInvalidFilter", i, err)
		}
	}
}

// TestAttrsAccessors checks attrs round-trip through every facade.
func TestAttrsAccessors(t *testing.T) {
	data, attrs := filterTestData(30, 4)
	cfg := Config{Metric: Euclidean, M: 8, Seed: 1}
	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewShardedIndexWithAttrs(data, attrs, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(nil, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range data {
		for name, got := range map[string]Attrs{
			"index":   ix.Attrs(i),
			"sharded": sx.Attrs(i),
			"dynamic": dyn.Attrs(i),
		} {
			if !got.Equal(attrs[i]) {
				t.Fatalf("%s: attrs(%d) = %v, want %v", name, i, got, attrs[i])
			}
		}
	}
}
