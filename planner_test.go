package lccs

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"lccs/internal/vec"
)

// Property tests for the filter planner: a filtered shard scan either
// gathers the filter's shortest equality posting list exactly or drains
// the CSA stream as before. Whenever postings answer, results must be
// the brute-force answer over the matching live rows at any λ; whenever
// the CSA answers, ids and Cost must be exactly those of the CSA path
// with postings hidden.

// plannerData draws rows with attributes at selectivities from 0.1% to
// 50%: k1000 (int, ≈0.1% per value), k100 (int, ≈1%), s10 (string,
// ≈10%), s2 (string, ≈50%), plus pos = the row index for range terms.
// Every 13th row carries no metadata.
func plannerData(seed int64, n, dim int) ([][]float32, []Attrs) {
	g := rand.New(rand.NewSource(seed))
	data := make([][]float32, n)
	attrs := make([]Attrs, n)
	for i := range data {
		v := make([]float32, dim)
		for j := range v {
			v[j] = g.Float32()
		}
		data[i] = v
		if i%13 == 12 {
			continue
		}
		attrs[i] = Attrs{
			"k1000": IntAttr(int64(g.Intn(1000))),
			"k100":  IntAttr(int64(g.Intn(100))),
			"s10":   StrAttr(fmt.Sprintf("v%d", g.Intn(10))),
			"s2":    StrAttr([]string{"a", "b"}[g.Intn(2)]),
			"pos":   IntAttr(int64(i)),
		}
	}
	return data, attrs
}

// plannerFilter draws one filter: single equality terms at every
// selectivity, conjunctions, range-only, an absent value, and a kind
// mismatch (an int value on a string key).
func plannerFilter(g *rand.Rand, n int) (string, *Filter) {
	lo, hi := int64(g.Intn(n)), int64(g.Intn(n))
	if lo > hi {
		lo, hi = hi, lo
	}
	switch g.Intn(9) {
	case 0:
		return "k1000", &Filter{Terms: []FilterTerm{EqInt("k1000", int64(g.Intn(1000)))}}
	case 1:
		return "k100", &Filter{Terms: []FilterTerm{EqInt("k100", int64(g.Intn(100)))}}
	case 2:
		return "s10", &Filter{Terms: []FilterTerm{EqStr("s10", fmt.Sprintf("v%d", g.Intn(10)))}}
	case 3:
		return "s2", &Filter{Terms: []FilterTerm{EqStr("s2", "a")}}
	case 4:
		return "k100&s2", &Filter{Terms: []FilterTerm{EqInt("k100", int64(g.Intn(100))), EqStr("s2", "b")}}
	case 5:
		return "s10&range", &Filter{Terms: []FilterTerm{Range("pos", &lo, &hi), EqStr("s10", "v3")}}
	case 6:
		return "range", &Filter{Terms: []FilterTerm{Range("pos", &lo, &hi)}}
	case 7:
		return "absent", &Filter{Terms: []FilterTerm{EqInt("k100", 5000)}}
	default:
		return "kind", &Filter{Terms: []FilterTerm{EqInt("s10", 3)}}
	}
}

// hasEqTerm reports whether the filter has an equality term (the only
// kind postings index).
func hasEqTerm(f *Filter) bool {
	for _, t := range f.Terms {
		if t.Op == FilterEq {
			return true
		}
	}
	return false
}

// plannerSource is one result source of a facade: an index shard (ix
// set) or the dynamic delta buffer (ix nil), with the external ids of
// its rows.
type plannerSource struct {
	ix  *Index
	ids []int
}

// plannerFacade is a facade under test plus what the oracle needs.
type plannerFacade struct {
	name    string
	s       Searcher
	sources []plannerSource
}

// shardLambda is a shard's share of the request budget λ on every
// facade: ⌈λ·n_s/n⌉ for a shard of n_s of the n indexed rows.
func (fac *plannerFacade) shardLambda(ix *Index, lambda int) int {
	n := 0
	for _, shard := range fac.shards() {
		n += shard.Len()
	}
	return int((int64(lambda)*int64(ix.Len()) + int64(n) - 1) / int64(n))
}

// shards returns the facade's index shards.
func (fac *plannerFacade) shards() []*Index {
	var out []*Index
	for _, src := range fac.sources {
		if src.ix != nil {
			out = append(out, src.ix)
		}
	}
	return out
}

// withoutPostings runs fn with every shard's postings hidden, so the
// planner takes the CSA drain everywhere: the pre-planner reference.
func (fac *plannerFacade) withoutPostings(fn func()) {
	shards := fac.shards()
	saved := make([]*vec.Postings, len(shards))
	for i, ix := range shards {
		saved[i], ix.post = ix.post, nil
	}
	defer func() {
		for i, ix := range shards {
			ix.post = saved[i]
		}
	}()
	fn()
}

// rangeIDs returns [lo, hi) mapped through ext.
func rangeIDs(lo, hi int, ext func(int) int) []int {
	out := make([]int, 0, hi-lo)
	for slot := lo; slot < hi; slot++ {
		out = append(out, ext(slot))
	}
	return out
}

func indexFacade(name string, ix *Index) *plannerFacade {
	return &plannerFacade{name: name, s: ix,
		sources: []plannerSource{{ix: ix, ids: rangeIDs(0, ix.Len(), func(s int) int { return s })}}}
}

func shardedFacade(name string, sx *ShardedIndex) *plannerFacade {
	fac := &plannerFacade{name: name, s: sx}
	for s, ix := range sx.shards {
		fac.sources = append(fac.sources, plannerSource{ix: ix, ids: rangeIDs(sx.offsets[s], sx.offsets[s+1], sx.ids.Ext)})
	}
	return fac
}

func dynamicFacade(name string, d *DynamicIndex) *plannerFacade {
	fac := &plannerFacade{name: name, s: d}
	for s, ix := range d.main.shards {
		fac.sources = append(fac.sources, plannerSource{ix: ix, ids: rangeIDs(d.main.offsets[s], d.main.offsets[s+1], d.main.ids.Ext)})
	}
	fac.sources = append(fac.sources, plannerSource{ids: rangeIDs(d.main.rows(), d.store.Len(), d.main.ids.Ext)})
	return fac
}

// plannerOracle holds the rows by external id.
type plannerOracle struct {
	data  [][]float32
	attrs []Attrs
	dead  map[int]bool
}

// ranked returns the matching live rows among ids, ranked by (dist, id)
// and cut to limit (≤ 0: no cut).
func (o *plannerOracle) ranked(ids []int, q []float32, f *Filter, limit int, dist func(a, b []float32) float64) []Neighbor {
	var out []Neighbor
	for _, id := range ids {
		if o.dead[id] || !f.Matches(o.attrs[id]) {
			continue
		}
		out = append(out, Neighbor{ID: id, Dist: dist(q, o.data[id])})
	}
	sortNeighbors(out)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func sortNeighbors(out []Neighbor) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}

// allIDs returns every external id the facade holds.
func (fac *plannerFacade) allIDs() []int {
	var out []int
	for _, src := range fac.sources {
		out = append(out, src.ids...)
	}
	return out
}

// checkValid asserts res is ascending, duplicate-free, and holds only
// live matching rows — what any plan mix must satisfy.
func (o *plannerOracle) checkValid(t *testing.T, label string, res []Neighbor, f *Filter) {
	t.Helper()
	seen := map[int]bool{}
	for i, nb := range res {
		if seen[nb.ID] || o.dead[nb.ID] || !f.Matches(o.attrs[nb.ID]) {
			t.Fatalf("%s: result %d (id %d) is a duplicate, dead, or non-matching", label, i, nb.ID)
		}
		seen[nb.ID] = true
		if i > 0 && nb.Dist < res[i-1].Dist {
			t.Fatalf("%s: results not ascending at %d", label, i)
		}
	}
}

// shardPlans collects the plan and posting length of every shard_scan
// span in a trace tree.
func shardPlans(nodes []SpanNode, plans []string, postingSum int64) ([]string, int64) {
	for _, n := range nodes {
		if n.Stage == "shard_scan" {
			plans = append(plans, n.Plan)
			if n.Posting != nil {
				postingSum += *n.Posting
			}
		}
		plans, postingSum = shardPlans(n.Children, plans, postingSum)
	}
	return plans, postingSum
}

// checkOneShot runs one filtered query through SearchCostInto, traced
// and metered and then bare, and holds the result to the oracle the
// chosen plans call for.
func checkOneShot(t *testing.T, fac *plannerFacade, o *plannerOracle, q []float32, k, lambda int, fname string, f *Filter) {
	t.Helper()
	label := fmt.Sprintf("%s/%s/λ=%d", fac.name, fname, lambda)
	tr := NewTrace(1)
	var co Cost
	got, err := fac.s.SearchCostInto(q, k, lambda, f, nil, &co, tr)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	plans, postingSum := shardPlans(tr.Tree(), nil, 0)
	ReleaseTrace(tr)
	if len(plans) != len(fac.shards()) {
		t.Fatalf("%s: %d shard_scan spans for %d shards", label, len(plans), len(fac.shards()))
	}
	again, err := fac.s.SearchCostInto(q, k, lambda, f, nil, nil, nil)
	if err != nil || !neighborsEqual(again, got) {
		t.Fatalf("%s: bare SearchCostInto %v (err %v) differs from the traced, metered one %v", label, again, err, got)
	}
	var ref []Neighbor
	var refCo Cost
	fac.withoutPostings(func() { ref, err = fac.s.SearchCostInto(q, k, lambda, f, nil, &refCo, nil) })
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	postings := 0
	for _, p := range plans {
		if p == "postings" {
			postings++
		} else if p != "csa" {
			t.Fatalf("%s: unknown plan %q", label, p)
		}
	}
	switch {
	case !hasEqTerm(f) && postings > 0:
		t.Fatalf("%s: a range-only filter took the postings path", label)
	case postings == len(plans):
		want := o.ranked(fac.allIDs(), q, f, k, fac.s.Distance)
		if !neighborsEqual(got, want) {
			t.Fatalf("%s: postings plan got %v, want brute force %v", label, got, want)
		}
		if _, dynamic := fac.s.(*DynamicIndex); !dynamic {
			if co.Comparisons != 0 || co.Candidates+co.FilterRejected != postingSum {
				t.Fatalf("%s: postings cost %+v, posting rows %d", label, co, postingSum)
			}
		}
	case postings == 0:
		if !neighborsEqual(got, ref) || co != refCo {
			t.Fatalf("%s: CSA plan got %v cost %+v, CSA path %v cost %+v", label, got, co, ref, refCo)
		}
	default:
		o.checkValid(t, label, got, f)
	}
}

// cursorPlans reports how many shard sources a cursor scan at λ answers
// from postings, by the planner's own rule (a cursor source verifies
// exactly its cursor budget: λ'+k−1 = λ_src on every page).
func cursorPlans(fac *plannerFacade, lambda int, f *Filter) (postings, shards int) {
	for _, ix := range fac.shards() {
		shards++
		if ix.post == nil {
			continue
		}
		if rows, ok := ix.post.Shortest(f); ok && usePostings(len(rows), fac.shardLambda(ix, lambda), ix.Len()) {
			postings++
		}
	}
	return postings, shards
}

// checkCursorDrain drains a cursor to exhaustion and holds it to the
// oracle: with every shard on postings, each shard source contributes
// its exact top-λ_src matching live rows and the buffer all of its
// own; with every shard on the CSA, the drain equals the CSA path's.
func checkCursorDrain(t *testing.T, fac *plannerFacade, o *plannerOracle, q []float32, limit, lambda int, fname string, f *Filter) {
	t.Helper()
	label := fmt.Sprintf("%s/cursor/%s/λ=%d/limit=%d", fac.name, fname, lambda, limit)
	got := drainCursor(t, fac.s, q, limit, lambda, f)
	postings, shards := cursorPlans(fac, lambda, f)
	switch {
	case !hasEqTerm(f) && postings > 0:
		t.Fatalf("%s: a range-only filter took the postings path", label)
	case postings == shards:
		var want []Neighbor
		for _, src := range fac.sources {
			cut := 0
			if src.ix != nil {
				cut = fac.shardLambda(src.ix, lambda)
			}
			want = append(want, o.ranked(src.ids, q, f, cut, fac.s.Distance)...)
		}
		sortNeighbors(want)
		if !neighborsEqual(got, want) {
			t.Fatalf("%s: postings drain got %v, want %v", label, got, want)
		}
	case postings == 0:
		var ref []Neighbor
		fac.withoutPostings(func() { ref = drainCursor(t, fac.s, q, limit, lambda, f) })
		if !neighborsEqual(got, ref) {
			t.Fatalf("%s: CSA drain got %v, CSA path %v", label, got, ref)
		}
	default:
		o.checkValid(t, label, got, f)
	}
}

// TestFilterPlannerProperty runs random filters at every selectivity
// and random budgets λ ∈ [1, n] through every facade — including
// multi-probe and SQ8 shards, a dynamic index with tombstones in its
// shards and its buffer, and that index's snapshot — one-shot and as
// full cursor drains.
func TestFilterPlannerProperty(t *testing.T) {
	const n, dim, k = 1500, 8, 10
	data, attrs := plannerData(11, n, dim)
	cfg := Config{Metric: Euclidean, M: 12, Seed: 5}

	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mpCfg := cfg
	mpCfg.Probes = 3
	mp, err := NewIndexWithAttrs(data, attrs, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := NewShardedIndexWithAttrs(data, attrs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	sqCfg := cfg
	sqCfg.Quantize = QuantizeSQ8
	sq, err := NewShardedIndexWithAttrs(data, attrs, sqCfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(nil, cfg, 400)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic layout: one compacted shard of 1000 rows, then a
	// background delta build freezing exactly the next 400 (the build
	// threshold), leaving 100 rows in the buffer.
	for i, v := range data {
		if i == 1000 {
			dyn.WaitRebuild()
			if err := dyn.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	g := rand.New(rand.NewSource(3))
	dead := map[int]bool{}
	for len(dead) < n/10 {
		id := g.Intn(n)
		if dyn.Delete(id) {
			dead[id] = true
		}
	}
	if dyn.Shards() < 2 || dyn.Buffered() == 0 {
		t.Fatalf("dynamic layout: %d shards, %d buffered; want several shards and a buffer", dyn.Shards(), dyn.Buffered())
	}
	_, snap, err := dyn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Deleted() == 0 {
		t.Fatal("snapshot carries no tombstones")
	}

	live := &plannerOracle{data: data, attrs: attrs}
	withDead := &plannerOracle{data: data, attrs: attrs, dead: dead}
	cases := []struct {
		fac *plannerFacade
		o   *plannerOracle
	}{
		{indexFacade("index", ix), live},
		{indexFacade("index-mp", mp), live},
		{shardedFacade("sharded", sx), live},
		{shardedFacade("sharded-sq8", sq), live},
		{dynamicFacade("dynamic", dyn), withDead},
		{shardedFacade("snapshot", snap), withDead},
	}
	trials := 80
	if testing.Short() {
		trials = 20
	}
	for _, c := range cases {
		for _, ix := range c.fac.shards() {
			if ix.post == nil {
				t.Fatalf("%s: a shard has no postings", c.fac.name)
			}
		}
		seen := map[string]bool{}
		for trial := 0; trial < trials; trial++ {
			q := make([]float32, dim)
			base := data[g.Intn(n)]
			for j := range q {
				q[j] = base[j] + float32(g.NormFloat64()*0.05)
			}
			fname, f := plannerFilter(g, n)
			// λ log-uniform in [1, n]: small budgets are where the two
			// plans differ most.
			lambda := int(math.Exp(g.Float64() * math.Log(float64(n))))
			if lambda < 1 {
				lambda = 1
			}
			checkOneShot(t, c.fac, c.o, q, k, lambda, fname, f)
			if trial%3 == 0 {
				checkCursorDrain(t, c.fac, c.o, q, 5+g.Intn(30), lambda, fname, f)
			}
			p, s := cursorPlans(c.fac, lambda, f)
			seen[fmt.Sprint(p == s, p == 0)] = true
		}
		if !seen["true false"] || !seen["false true"] {
			t.Errorf("%s: the trials did not exercise both plans: %v", c.fac.name, seen)
		}
	}
}

// assertPostingsServe checks that every shard of fac carries postings
// and that a ≈0.1%-selective filter at λ = 1 is answered from them on
// every shard, exactly.
func assertPostingsServe(t *testing.T, fac *plannerFacade, o *plannerOracle) {
	t.Helper()
	for i, ix := range fac.shards() {
		if ix.post == nil {
			t.Fatalf("%s: shard %d lost its postings", fac.name, i)
		}
	}
	for v := int64(0); v < 5; v++ {
		f := &Filter{Terms: []FilterTerm{EqInt("k1000", v)}}
		q := o.data[int(v)*7]
		tr := NewTrace(1)
		got, err := fac.s.SearchCostInto(q, 10, 1, f, nil, nil, tr)
		plans, _ := shardPlans(tr.Tree(), nil, 0)
		ReleaseTrace(tr)
		if err != nil {
			t.Fatalf("%s: %v", fac.name, err)
		}
		for i, p := range plans {
			if p != "postings" {
				t.Fatalf("%s: shard %d planned %q for a 0.1%% filter at λ=1", fac.name, i, p)
			}
		}
		if want := o.ranked(fac.allIDs(), q, f, 10, fac.s.Distance); !neighborsEqual(got, want) {
			t.Fatalf("%s: got %v, want %v", fac.name, got, want)
		}
	}
}

// TestPostingsSurviveLifecycle pins that postings are rebuilt wherever
// a shard is built or adopted: Save/Load of both containers, a
// background delta build, Rebuild, and a durable warm restart.
func TestPostingsSurviveLifecycle(t *testing.T) {
	const n, dim = 1200, 8
	data, attrs := plannerData(21, n, dim)
	cfg := Config{Metric: Euclidean, M: 12, Seed: 5}
	o := &plannerOracle{data: data, attrs: attrs}
	dir := t.TempDir()

	ix, err := NewIndexWithAttrs(data, attrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(filepath.Join(dir, "single.lccs")); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(filepath.Join(dir, "single.lccs"), data)
	if err != nil {
		t.Fatal(err)
	}
	assertPostingsServe(t, indexFacade("index-load", loaded), o)

	sx, err := NewShardedIndexWithAttrs(data, attrs, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertPostingsServe(t, shardedFacade("sharded", sx), o)
	if err := sx.Save(filepath.Join(dir, "sharded.lccs")); err != nil {
		t.Fatal(err)
	}
	lsx, err := LoadSharded(filepath.Join(dir, "sharded.lccs"), data)
	if err != nil {
		t.Fatal(err)
	}
	assertPostingsServe(t, shardedFacade("sharded-load", lsx), o)
	lone, err := LoadSharded(filepath.Join(dir, "single.lccs"), data)
	if err != nil {
		t.Fatal(err)
	}
	assertPostingsServe(t, shardedFacade("single-as-sharded", lone), o)

	// Background delta builds, then Rebuild.
	dyn, err := NewDynamicIndex(nil, cfg, 250)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dyn.WaitRebuild()
	if dyn.Shards() < 2 {
		t.Fatalf("want several delta shards, have %d", dyn.Shards())
	}
	assertPostingsServe(t, dynamicFacade("delta-builds", dyn), o)
	if err := dyn.Rebuild(); err != nil {
		t.Fatal(err)
	}
	assertPostingsServe(t, dynamicFacade("rebuild", dyn), o)

	// Warm restart of a durable directory: the checkpointed snapshot
	// is loaded and adopted as the dynamic main.
	ddir := filepath.Join(dir, "durable")
	dc := DurableConfig{Config: cfg, Sync: SyncAlways, RebuildAt: 400}
	di, err := OpenDurable(ddir, dc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := di.AddBatchWithAttrs(data, attrs); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := di.Close(); err != nil {
		t.Fatal(err)
	}
	di, err = OpenDurable(ddir, dc)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if di.Buffered() != 0 {
		t.Fatalf("warm restart left %d rows buffered", di.Buffered())
	}
	assertPostingsServe(t, dynamicFacade("warm-restart", di.DynamicIndex), o)
}

// TestFilteredSearchDuringDeltaBuilds runs selective filtered searches
// from several goroutines while a writer inserts attributed rows (each
// crossing of the threshold builds a delta shard and its postings in
// the background) and deletes some. Every answer must hold only live
// matching rows; under -race this also checks that a shard's postings
// are published to readers safely.
func TestFilteredSearchDuringDeltaBuilds(t *testing.T) {
	const n, dim = 1200, 8
	data, attrs := plannerData(31, n, dim)
	dyn, err := NewDynamicIndex(nil, Config{Metric: Euclidean, M: 8, Seed: 5}, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := &Filter{Terms: []FilterTerm{EqStr("s10", "v4")}}
	done := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		go func(r int) {
			var dst []Neighbor
			var err error
			for i := 0; ; i++ {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				if dst, err = dyn.SearchCostInto(data[(i*7+r)%n], 10, 1+i%50, f, dst, nil, nil); err != nil {
					errs <- err
					return
				}
				for _, nb := range dst {
					if a := dyn.Attrs(nb.ID); a != nil && !f.Matches(a) {
						errs <- fmt.Errorf("reader %d: id %d does not match the filter", r, nb.ID)
						return
					}
				}
			}
		}(r)
	}
	for i, v := range data {
		if _, err := dyn.AddWithAttrs(v, attrs[i]); err != nil {
			t.Error(err)
			break
		}
		if i%9 == 8 {
			dyn.Delete(i - 4)
		}
	}
	dyn.WaitRebuild()
	close(done)
	for r := 0; r < 3; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if dyn.Shards() < 2 {
		t.Fatalf("want several delta shards, have %d", dyn.Shards())
	}
}
