package lccs

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lccs/internal/core"
	"lccs/internal/idmap"
	"lccs/internal/obs"
	"lccs/internal/pqueue"
	"lccs/internal/vec"
)

// ShardedIndex partitions a dataset across S shards, each an independent
// LCCS-LSH Index over a contiguous slice of the data. All shards share one
// fully resolved configuration — the same seed, hash-string length m, and
// bucket width (derived once from the full dataset) — so a sharded index
// is seed-equivalent to a single Index over the same data. The vectors
// live in one flat store shared by every shard (each shard holds a
// contiguous view), so sharding adds no per-shard copies.
//
// Sharding serves two purposes. Construction: the CSA build is dominated
// by the m circular sorts, and S shards sort S independent problems of
// size n/S in parallel, turning the sort-bound build near-linear in cores
// (each shard's working set is also S× smaller, which keeps the
// comparison-heavy sorts in cache). Queries: a search fans out across all
// shards — concurrently when cores allow — and the per-shard top-k lists
// are combined by a tournament-tree merge into the global top-k.
//
// Query cost grows mildly with S (each shard runs its own binary searches
// and verifies its own candidate floor), so prefer the smallest shard
// count that saturates the hardware: GOMAXPROCS for build-heavy or
// mixed workloads (the default), 1 for tiny datasets.
//
// A ShardedIndex is safe for concurrent queries; per-query scratch (the
// per-shard result lists and the tournament merge) is pooled, so
// SearchCostInto with a reused dst allocates nothing at steady state.
type ShardedIndex struct {
	cfg    Config
	store  *vec.Store
	shards []*Index
	// offsets[s] is the global id of the first vector of shard s;
	// offsets[len(shards)] == n. Shard s covers data[offsets[s]:offsets[s+1]].
	offsets   []int
	budget    int
	dim       int
	buildTime time.Duration
	// Lifecycle state carried over from a DynamicIndex snapshot (or a
	// loaded LCCSPKG3 container). All three stay nil on fresh builds and
	// legacy loads, keeping the common path untouched.
	//
	// ids maps dense store slots to the stable external ids results are
	// reported in; nil means the identity (slot == id).
	ids *idmap.Map
	// dead is the tombstone set keyed by store slot: these rows are
	// indexed positionally by the shard structures but must never
	// surface in results.
	dead map[int]bool
	// shardDead[s] counts tombstones inside shard s — its per-query
	// over-fetch allowance.
	shardDead []int
	// attrs holds per-slot metadata (global slot space, shared across
	// shards); nil when no vector carries attributes.
	attrs *vec.MetaStore
	// ctxs pools shardCtx values: the per-shard result buffers and the
	// tournament tree of one fan-out query.
	ctxs sync.Pool
}

// shardCtx is the pooled per-query scratch of a shard fan-out: one
// reusable result buffer per shard, a per-shard stats slot (written by
// each scan, summed after the fan-out joins — no atomics), and the
// merge tree.
type shardCtx struct {
	lists [][]pqueue.Neighbor
	stats []core.SearchStats
	t     pqueue.Tournament
}

// initPool installs the shardCtx pool; called once per constructed or
// loaded sharded index.
func (sx *ShardedIndex) initPool() {
	s := len(sx.shards)
	sx.ctxs.New = func() any {
		return &shardCtx{
			lists: make([][]pqueue.Neighbor, s),
			stats: make([]core.SearchStats, s),
		}
	}
}

// NewShardedIndex builds an LCCS-LSH index over data partitioned into the
// given number of shards. shards ≤ 0 selects GOMAXPROCS; the count is
// capped at len(data) so every shard is non-empty. All shard CSAs are
// built in parallel.
func NewShardedIndex(data [][]float32, cfg Config, shards int) (*ShardedIndex, error) {
	if len(data) == 0 {
		return nil, errors.New("lccs: empty dataset")
	}
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	return newShardedFromStore(store, cfg, shards)
}

// newShardedFromStore builds the sharded index over an owning flat
// store; every shard indexes a contiguous view of it.
func newShardedFromStore(store *vec.Store, cfg Config, shards int) (*ShardedIndex, error) {
	n := store.Len()
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	cfg, err := resolveConfig(store, cfg)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	sx := &ShardedIndex{
		cfg:     cfg,
		store:   store,
		shards:  make([]*Index, shards),
		offsets: shardOffsets(n, shards),
		budget:  cfg.Budget,
		dim:     store.Dim(),
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sx.shards[s], errs[s] = newIndexFromStore(store.Slice(sx.offsets[s], sx.offsets[s+1]), cfg)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sx.initPool()
	sx.buildTime = time.Since(start)
	return sx, nil
}

// shardOffsets splits n items into an (shards+1)-entry offset table of
// near-equal contiguous ranges (the first n%shards ranges are one larger).
func shardOffsets(n, shards int) []int {
	offsets := make([]int, shards+1)
	base, rem := n/shards, n%shards
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		offsets[s+1] = offsets[s] + size
	}
	return offsets
}

// Search returns the k nearest neighbors of q across all shards with the
// index's default candidate budget, in ascending distance order. Ids are
// global: they index into the data slice the index was built from.
func (sx *ShardedIndex) Search(q []float32, k int) ([]Neighbor, error) {
	return sx.SearchBudget(q, k, sx.budget)
}

// SearchBudget is Search with an explicit candidate budget λ. The budget
// is divided across shards (⌈λ/S⌉ each), so each shard verifies
// ⌈λ/S⌉+k−1 candidates and the total verification work is ≈ λ+S·(k−1).
// The shards are searched concurrently when more than one CPU is
// available.
func (sx *ShardedIndex) SearchBudget(q []float32, k, lambda int) ([]Neighbor, error) {
	if err := validateBudget(k, lambda); err != nil {
		return nil, err
	}
	return sx.searchCostInto(q, k, lambda, true, nil, nil, nil, nil)
}

// SearchCostInto is the sharded index's one search body (see
// CostSearcher). The shard fan-out runs sequentially: callers on this
// path — server handlers, batch workers — provide their own
// concurrency, and the merge is deterministic, so results equal
// SearchBudget's. A traced query records one shard_scan span per shard
// (with the CSA comparison, verified-candidate, and bytes-scanned
// counters, and the filter plan when filtered) plus a tournament-merge
// span, under a query root span. Each shard of a filtered query either
// gathers its posting list exactly or drains its candidate stream past
// non-matching (or tombstoned) rows before any distance work (see
// Filter), so the per-shard lists the tournament merges hold only live
// matching rows.
func (sx *ShardedIndex) SearchCostInto(q []float32, k, lambda int, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error) {
	if lambda <= 0 {
		lambda = sx.budget
	}
	return sx.searchCostInto(q, k, lambda, false, f, dst, co, tr)
}

// searchCostInto is the fan-out/merge behind SearchCostInto, with the
// shard scans optionally on per-shard goroutines. Results are appended
// to dst (reset to dst[:0] first; dst may be nil). Per-shard stats land
// in pooled slots and are summed after the fan-out joins, so the
// parallel path needs no atomics and the sequential path allocates
// nothing.
func (sx *ShardedIndex) searchCostInto(q []float32, k, lambda int, parallel bool, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error) {
	if err := validateFilter(f); err != nil {
		return nil, err
	}
	if err := validateQuery(q, sx.dim, k, lambda); err != nil {
		return nil, err
	}
	root := tr.StartSpan(obs.StageQuery, -1) // nil-safe: -1 when untraced
	ctx := sx.ctxs.Get().(*shardCtx)
	sx.searchShards(q, k, lambda, parallel, f, ctx, tr, root)
	mergeSpan := tr.StartSpan(obs.StageMerge, root)
	ctx.t.Reset(ctx.lists)
	if dst == nil {
		// The plain Search path: one exactly-sized result allocation.
		dst = make([]Neighbor, 0, k)
	}
	dst = dst[:0]
	for len(dst) < k {
		nb, ok := ctx.t.Pop()
		if !ok {
			break
		}
		// Tombstones from a dynamic snapshot are filtered here (the
		// per-shard fetch over-shot by the shard's tombstone count, so k
		// live results still come through); ids leave in the stable
		// external space. Both are no-ops on fresh builds, and a
		// filtered scan already rejected dead rows in-stream.
		if sx.dead[nb.ID] {
			continue
		}
		dst = append(dst, Neighbor{ID: sx.ids.Ext(nb.ID), Dist: nb.Dist})
	}
	if co != nil {
		for i := range ctx.stats {
			co.addStats(ctx.stats[i])
		}
	}
	sx.ctxs.Put(ctx)
	if tr != nil {
		obs.ObserveDur(obs.StageMerge, tr.FinishSpanN(mergeSpan, int64(len(dst)), 0))
		obs.ObserveDur(obs.StageQuery, tr.FinishSpan(root))
	}
	return dst, nil
}

// searchShards fans the query out across all shards — concurrently when
// asked and more than one CPU is available — filling ctx.lists with the
// per-shard top-k (global ids, ascending by distance) and ctx.stats
// with each shard's work counters. The per-shard buffers are reused
// across queries.
func (sx *ShardedIndex) searchShards(q []float32, k, lambda int, parallel bool, f *Filter, ctx *shardCtx, tr *Trace, parent int) {
	s := len(sx.shards)
	lambdaShard := (lambda + s - 1) / s
	if !parallel || s == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range sx.shards {
			sx.scanShard(i, q, k, lambdaShard, f, ctx, tr, parent)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range sx.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sx.scanShard(i, q, k, lambdaShard, f, ctx, tr, parent)
		}(i)
	}
	wg.Wait()
}

// scanShard runs shard i's scan into its ctx slots. A filtered scan
// fetches k (its predicate already rejects tombstones); an unfiltered
// one over-fetches by the shard's tombstone count.
func (sx *ShardedIndex) scanShard(i int, q []float32, k, lambdaShard int, f *Filter, ctx *shardCtx, tr *Trace, parent int) {
	off := sx.offsets[i]
	var accept func(int) bool
	fetch := sx.shardFetch(i, k)
	if !f.Empty() {
		accept, fetch = sx.acceptFunc(f, off), k
	}
	ctx.lists[i], ctx.stats[i] = sx.shards[i].scan(q, fetch, lambdaShard, off, f, accept, ctx.lists[i], tr, parent, i)
}

// shardFetch returns the tombstone-aware fetch for shard s.
func (sx *ShardedIndex) shardFetch(s, k int) int {
	if sx.shardDead == nil {
		return k
	}
	return fetchForShard(k, sx.shardDead[s], sx.offsets[s+1]-sx.offsets[s])
}

// fetchForShard is the single over-fetch policy shared by ShardedIndex
// and DynamicIndex (their results must stay conformant): how many
// candidates a shard must yield for k live results to survive tombstone
// filtering — k plus the shard's own tombstone count, clamped to the
// shard's size so the fetch never grows past what the shard holds.
func fetchForShard(k, dead, shardLen int) int {
	fetch := k + dead
	if fetch > shardLen {
		fetch = shardLen
	}
	return fetch
}

// filterPlan is the filter planner's choice for one shard scan, kept
// for EXPLAIN.
type filterPlan struct {
	// postings is set when the shard ranked its posting list exactly
	// instead of draining the CSA stream.
	postings bool
	// posting is the length of the shortest equality posting list the
	// planner consulted, or -1 when it consulted none (no postings
	// built, or no equality term in the filter).
	posting int
}

// record stamps the plan onto a traced shard_scan span. Nil-safe.
func (p filterPlan) record(tr *Trace, sp int) {
	plan := "csa"
	if p.postings {
		plan = "postings"
	}
	tr.SetPlan(sp, plan, int64(p.posting))
}

// usePostings is the planner's switch rule for one shard of n rows
// asked to verify nCand = λ+k−1 matching candidates, where the filter's
// shortest equality posting list has p rows. The CSA drain keeps
// pulling rows in LCCS order until nCand of them match; with a fraction
// p/n of rows eligible it pulls about nCand·n/p rows, each costing at
// least one distance row's worth of work (a drained row costs more than
// a gathered one, so this under-counts the drain). Gathering the
// posting list exactly costs p distance rows. Postings therefore win
// whenever p ≤ nCand·n/p, i.e. p² ≤ nCand·n. The rule is derived from
// the two costs, not tuned, and needs no configuration.
func usePostings(p, nCand, n int) bool {
	return int64(p)*int64(p) <= int64(nCand)*int64(n)
}

// scan is searchFilterOffsetIntoStats under a traced shard_scan span
// (child of parent, labeled with shard) carrying the scan's CSA
// comparison, verified-candidate, and bytes-scanned counters, and the
// planner's choice when the scan is filtered. It is the one-shot scan
// of every facade; a nil tr records nothing.
func (ix *Index) scan(q []float32, k, lambda, offset int, f *Filter, accept func(int) bool, dst []pqueue.Neighbor, tr *Trace, parent, shard int) ([]pqueue.Neighbor, core.SearchStats) {
	sp := tr.StartShardSpan(obs.StageShardScan, parent, shard)
	dst, stats, plan := ix.searchFilterOffsetIntoStats(q, k, lambda, offset, f, accept, dst)
	if tr != nil {
		if accept != nil {
			plan.record(tr, sp)
		}
		obs.ObserveDur(obs.StageShardScan, tr.FinishSpanCost(sp, int64(stats.Comparisons), int64(stats.Candidates), stats.BytesScanned))
	}
	return dst, stats
}

// searchFilterOffsetIntoStats is the filter planner: the one per-shard
// scan every facade (one-shot, metered, traced, cursor) funnels
// through. accept is the full predicate — liveness and every filter
// term — over shard-local ids; f supplies the equality terms. When the
// shard has postings and the filter's shortest equality posting list P
// passes usePostings, exactly the rows of P that accept admits are
// gathered with exact distances: the result is the exact top-k over
// the matching live rows at any λ. Otherwise — no postings, range-only
// filters, or a long P — the CSA stream drains past rejected rows until
// λ+k−1 matching candidates are verified. A nil accept is the
// unfiltered CSA scan.
func (ix *Index) searchFilterOffsetIntoStats(q []float32, k, lambda, offset int, f *Filter, accept func(int) bool, dst []pqueue.Neighbor) ([]pqueue.Neighbor, core.SearchStats, filterPlan) {
	plan := filterPlan{posting: -1}
	if accept != nil && ix.post != nil {
		if rows, ok := ix.post.Shortest(f); ok {
			plan.posting = len(rows)
			if usePostings(len(rows), lambda+k-1, ix.Len()) {
				plan.postings = true
				dst, stats := ix.single.SearchRowsOffsetIntoStats(q, k, rows, offset, accept, dst)
				return dst, stats, plan
			}
		}
	}
	var stats core.SearchStats
	if ix.multi != nil {
		dst, stats = ix.multi.SearchFilterOffsetIntoStats(q, k, lambda, offset, accept, dst)
	} else {
		dst, stats = ix.single.SearchFilterOffsetIntoStats(q, k, lambda, offset, accept, dst)
	}
	return dst, stats, plan
}

// NewShardedIndexWithAttrs is NewShardedIndex with per-vector metadata:
// attrs[i] belongs to data[i]. attrs may be shorter than data but not
// longer.
func NewShardedIndexWithAttrs(data [][]float32, attrs []Attrs, cfg Config, shards int) (*ShardedIndex, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	sx, err := NewShardedIndex(data, cfg, shards)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		sx.adoptAttrs(vec.MetaFromRows(append([]Attrs(nil), attrs...)))
	}
	return sx, nil
}

// adoptAttrs installs per-slot metadata and hands every shard the range
// view of its own rows, from which the shard builds its postings. It
// runs once, before the index is shared with any reader.
func (sx *ShardedIndex) adoptAttrs(attrs *vec.MetaStore) {
	sx.attrs = attrs
	for s, shard := range sx.shards {
		shard.adoptAttrs(attrs.Range(sx.offsets[s], sx.offsets[s+1]))
	}
}

// Attrs returns the metadata of the vector with the given external id,
// or nil.
func (sx *ShardedIndex) Attrs(id int) Attrs {
	slot, ok := sx.slotFor(id)
	if !ok {
		return nil
	}
	return sx.attrs.Row(slot)
}

// slotFor resolves an external id to a live store slot.
func (sx *ShardedIndex) slotFor(id int) (int, bool) {
	slot := id
	if sx.ids != nil {
		s, ok := sx.ids.Slot(id)
		if !ok {
			return 0, false
		}
		slot = s
	}
	if slot < 0 || slot >= sx.slots() || (sx.dead != nil && sx.dead[slot]) {
		return 0, false
	}
	return slot, true
}

// acceptFunc builds the per-shard candidate predicate of a filtered or
// cursor query: live (not tombstoned) and matching the filter; nil when
// neither tombstones nor filter terms exclude anything. local ids are
// shard-local; off is the shard's global offset.
func (sx *ShardedIndex) acceptFunc(f *Filter, off int) func(int) bool {
	attrs, dead := sx.attrs, sx.dead
	if dead == nil {
		if f.Empty() {
			return nil
		}
		return func(local int) bool { return f.Matches(attrs.Row(local + off)) }
	}
	return func(local int) bool {
		glob := local + off
		return !dead[glob] && f.Matches(attrs.Row(glob))
	}
}

// Distance returns the index's metric distance between two vectors.
func (sx *ShardedIndex) Distance(a, b []float32) float64 {
	return sx.shards[0].Distance(a, b)
}

// Shards returns the number of shards.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// Shard returns the s-th shard's Index and the global id of its first
// vector. Exposed for benchmarking and inspection; treat it as read-only.
// The shard carries its own rows' attributes, so its filtered searches
// work standalone; tombstones of a dynamic snapshot are applied by the
// ShardedIndex, not by the shard.
func (sx *ShardedIndex) Shard(s int) (*Index, int) { return sx.shards[s], sx.offsets[s] }

// M returns the hash-string length (identical across shards).
func (sx *ShardedIndex) M() int { return sx.shards[0].M() }

// Dim returns the dimensionality of the indexed vectors.
func (sx *ShardedIndex) Dim() int { return sx.dim }

// Len returns the number of live (searchable) vectors: tombstoned rows
// carried by a dynamic snapshot are not counted.
func (sx *ShardedIndex) Len() int { return sx.slots() - len(sx.dead) }

// slots returns the total number of physical rows the shards index,
// including tombstoned ones — the length of the data slice Save/Load
// round-trips work with.
func (sx *ShardedIndex) slots() int { return sx.offsets[len(sx.offsets)-1] }

// Deleted returns the number of tombstoned rows this index carries
// (non-zero only for dynamic snapshots taken with pending deletes).
func (sx *ShardedIndex) Deleted() int { return len(sx.dead) }

// Bytes returns the approximate total index memory footprint.
func (sx *ShardedIndex) Bytes() int64 {
	var total int64
	for _, shard := range sx.shards {
		total += shard.Bytes()
	}
	return total
}

// BuildTime returns the wall-clock time of the parallel build.
func (sx *ShardedIndex) BuildTime() time.Duration { return sx.buildTime }

// validateShardCount sanity-checks a decoded shard count against the
// dataset size.
func validateShardCount(shards, n int) error {
	if shards <= 0 || shards > n {
		return fmt.Errorf("lccs: corrupt shard count %d for %d vectors", shards, n)
	}
	return nil
}
