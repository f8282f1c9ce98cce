package lccs

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
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
	shardSet
	cfg       Config
	store     *vec.Store
	dim       int
	buildTime time.Duration
}

// shardSet is the query side shared by ShardedIndex and the indexed main
// of a DynamicIndex: immutable shards over contiguous slot ranges, the
// lifecycle state that maps their rows to results, and the one fan-out,
// merge and cursor both facades answer through. A DynamicIndex mutates
// its set only under its write lock.
type shardSet struct {
	shards []*Index
	// offsets[s] is the slot of the first row of shard s;
	// offsets[len(shards)] is the number of indexed rows (rows()).
	offsets []int
	// shardDead[s] counts tombstones inside shard s — its unfiltered
	// over-fetch allowance; nil means none anywhere.
	shardDead []int
	// dead is the tombstone set keyed by slot: these rows stay indexed
	// positionally but never surface in results. nil on fresh builds.
	dead map[int]bool
	// ids maps slots to the stable external ids results are reported
	// in; nil means the identity (slot == id).
	ids *idmap.Map
	// attrs holds per-slot metadata in the set's slot space; nil when no
	// row carries attributes.
	attrs *vec.MetaStore
	// ctxs pools shardCtx values: the per-source result buffers and the
	// tournament tree of one query.
	ctxs sync.Pool
}

// shardCtx is the pooled per-query scratch of a fan-out: one reusable
// result buffer per source, a per-source stats slot (written by each
// scan, summed after the fan-out joins — no atomics), the buffer scan's
// top-k collector, and the merge tree.
type shardCtx struct {
	lists [][]pqueue.Neighbor
	stats []core.SearchStats
	best  pqueue.KBest
	t     pqueue.Tournament
}

// buffer is the unindexed row range past a set's shards — a
// DynamicIndex's delta buffer, slots [rows(), store.Len()) — scanned
// exactly as one more sorted source of the merge and the cursor. The
// zero buffer (nil store) is none.
type buffer struct {
	store  *vec.Store
	metric vec.Metric
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
	sx := &ShardedIndex{cfg: cfg, store: store, dim: store.Dim()}
	sx.shards = make([]*Index, shards)
	sx.offsets = shardOffsets(n, shards)
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
	return sx.SearchBudget(q, k, sx.cfg.Budget)
}

// SearchBudget is Search with an explicit candidate budget λ. The budget
// is divided across shards in proportion to their rows (⌈λ·n_s/n⌉ for
// shard s of n_s rows), so shard s verifies ⌈λ·n_s/n⌉+k−1 candidates,
// the total verification work is ≈ λ+S·(k−1), and λ ≥ n verifies every
// row. The shards are searched concurrently when more than one CPU is
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
		lambda = sx.cfg.Budget
	}
	return sx.searchCostInto(q, k, lambda, false, f, dst, co, tr)
}

// searchCostInto validates a query and runs the set's fan-out/merge,
// with the shard scans optionally on per-shard goroutines.
func (sx *ShardedIndex) searchCostInto(q []float32, k, lambda int, parallel bool, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error) {
	if err := validateFilter(f); err != nil {
		return nil, err
	}
	if err := validateQuery(q, sx.dim, k, lambda); err != nil {
		return nil, err
	}
	return sx.search(q, k, lambda, parallel, f, buffer{}, dst, co, tr), nil
}

// search is the one fan-out/merge of both sharded facades: every shard
// scans its share of λ (optionally on per-shard goroutines), the buffer
// — when there is one — is scanned exactly, and a tournament merges the
// sorted per-source lists into the top k, skipping tombstoned rows and
// reporting external ids. Results are appended to dst (reset to dst[:0]
// first; dst may be nil). Per-source stats land in pooled slots and are
// summed after the fan-out joins, so the parallel path needs no atomics
// and the sequential path allocates nothing.
func (ss *shardSet) search(q []float32, k, lambda int, parallel bool, f *Filter, buf buffer, dst []Neighbor, co *Cost, tr *Trace) []Neighbor {
	root := tr.StartSpan(obs.StageQuery, -1) // nil-safe: -1 when untraced
	ctx := ss.getCtx(buf)
	ss.scanShards(q, k, lambda, parallel, f, ctx, tr, root)
	if buf.store != nil {
		s := len(ss.shards)
		ctx.best.Reset(k)
		ctx.lists[s], ctx.stats[s] = ss.scanBuffer(buf, q, f, &ctx.best, ctx.lists[s], tr, root)
	}
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
		// Unfiltered shard lists may hold tombstoned rows (each shard
		// over-fetched by its tombstone count, so k live results still
		// come through); filtered scans and the buffer already rejected
		// them. Ids leave in the stable external space.
		if ss.dead[nb.ID] {
			continue
		}
		dst = append(dst, Neighbor{ID: ss.ids.Ext(nb.ID), Dist: nb.Dist})
	}
	if co != nil {
		for i := range ctx.stats {
			co.addStats(ctx.stats[i])
		}
	}
	ss.ctxs.Put(ctx)
	if tr != nil {
		obs.ObserveDur(obs.StageMerge, tr.FinishSpanN(mergeSpan, int64(len(dst)), 0))
		obs.ObserveDur(obs.StageQuery, tr.FinishSpan(root))
	}
	return dst
}

// getCtx draws pooled scratch sized to the set's sources: one list per
// shard, plus one for the buffer when there is one. A DynamicIndex's
// shard count grows, so the slices grow with it, keeping their buffers.
func (ss *shardSet) getCtx(buf buffer) *shardCtx {
	ctx, _ := ss.ctxs.Get().(*shardCtx)
	if ctx == nil {
		ctx = new(shardCtx)
	}
	nsrc := len(ss.shards)
	if buf.store != nil {
		nsrc++
	}
	if cap(ctx.lists) < nsrc {
		lists := make([][]pqueue.Neighbor, nsrc)
		copy(lists, ctx.lists[:cap(ctx.lists)])
		ctx.lists, ctx.stats = lists, make([]core.SearchStats, nsrc)
	}
	ctx.lists, ctx.stats = ctx.lists[:nsrc], ctx.stats[:nsrc]
	return ctx
}

// scanShards fans the query out across all shards — concurrently when
// asked and more than one CPU is available — filling ctx.lists with the
// per-shard top-k (global slots, ascending by distance) and ctx.stats
// with each shard's work counters.
func (ss *shardSet) scanShards(q []float32, k, lambda int, parallel bool, f *Filter, ctx *shardCtx, tr *Trace, parent int) {
	if !parallel || len(ss.shards) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for i := range ss.shards {
			ss.scanShard(i, q, k, lambda, f, ctx, tr, parent)
		}
		return
	}
	var wg sync.WaitGroup
	for i := range ss.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss.scanShard(i, q, k, lambda, f, ctx, tr, parent)
		}(i)
	}
	wg.Wait()
}

// scanShard runs shard i's scan at its share of λ into its ctx slots. A
// filtered scan fetches k (its predicate already rejects tombstones); an
// unfiltered one over-fetches by the shard's tombstone count.
func (ss *shardSet) scanShard(i int, q []float32, k, lambda int, f *Filter, ctx *shardCtx, tr *Trace, parent int) {
	off := ss.offsets[i]
	var accept func(int) bool
	fetch := ss.fetch(i, k)
	if !f.Empty() {
		accept, fetch = ss.acceptFunc(f, off), k
	}
	ctx.lists[i], ctx.stats[i] = ss.shards[i].scan(q, fetch, ss.shardBudget(i, lambda), off, f, accept, ctx.lists[i], tr, parent, i)
}

// scanBuffer scans the buffer exactly into best (already Reset to the
// wanted depth) and appends its sorted contents to dst[:0]: every live
// row matching f. Rows the filter rejects still paid for their distance
// (Comparisons) but are not candidates, matching the core accounting.
func (ss *shardSet) scanBuffer(buf buffer, q []float32, f *Filter, best *pqueue.KBest, dst []pqueue.Neighbor, tr *Trace, parent int) ([]pqueue.Neighbor, core.SearchStats) {
	sp := tr.StartSpan(obs.StageBufferScan, parent)
	lo, hi := ss.rows(), buf.store.Len()
	rejected := 0
	buf.store.Scan(lo, hi, q, buf.metric, func(slot int, dist float64) {
		if ss.dead[slot] {
			return
		}
		if !f.Matches(ss.attrs.Row(slot)) {
			rejected++
			return
		}
		best.Add(slot, dist)
	})
	// The scan reads every row's full float32 payload exactly once.
	st := core.SearchStats{
		Comparisons:    hi - lo,
		Candidates:     hi - lo - rejected,
		BytesScanned:   int64(hi-lo) * int64(buf.store.Dim()) * 4,
		FilterRejected: rejected,
	}
	if tr != nil {
		obs.ObserveDur(obs.StageBufferScan, tr.FinishSpanCost(sp, int64(st.Comparisons), int64(st.Candidates), st.BytesScanned))
	}
	return best.AppendSorted(dst[:0]), st
}

// rows returns the number of slots the shards index.
func (ss *shardSet) rows() int { return ss.offsets[len(ss.offsets)-1] }

// shardBudget is shard s's share of the candidate budget λ: ⌈λ·n_s/n⌉
// for a shard of n_s of the n indexed rows. Every shard gets at least
// one candidate, equal shards get ⌈λ/S⌉, and λ ≥ n gives every shard
// at least its own row count, so an exhaustive budget stays exhaustive
// however uneven the shards are. The product is formed in int64 from
// the quotient and remainder of λ/n, so no λ overflows it.
func (ss *shardSet) shardBudget(s, lambda int) int {
	n, ns := int64(ss.rows()), int64(ss.offsets[s+1]-ss.offsets[s])
	whole, rem := int64(lambda)/n, int64(lambda)%n
	return int(whole*ns + (rem*ns+n-1)/n)
}

// fetch returns how many results shard s must yield for k live ones to
// survive tombstone filtering: k plus the shard's own tombstone count,
// clamped to the shard's size so the fetch never grows past what the
// shard holds.
func (ss *shardSet) fetch(s, k int) int {
	fetch := k
	if ss.shardDead != nil {
		fetch += ss.shardDead[s]
	}
	return min(fetch, ss.offsets[s+1]-ss.offsets[s])
}

// appendShard adds ix as the shard covering the next ix.Len() slots,
// with dead of them already tombstoned.
func (ss *shardSet) appendShard(ix *Index, dead int) {
	ss.shards = append(ss.shards, ix)
	ss.offsets = append(ss.offsets, ss.rows()+ix.Len())
	ss.shardDead = append(ss.shardDead, dead)
}

// copyTo installs a copy of the set in dst — the hand-off between the
// two facades (a DynamicIndex snapshot, a warm restart from a
// ShardedIndex). The shards and attribute rows are immutable and
// shared; the shard table, tombstone counts and tombstone set are
// copied, so later writes to either side never reach the other. rows
// caps dst's attribute view; ids is the id map dst adopts.
func (ss *shardSet) copyTo(dst *shardSet, rows int, ids *idmap.Map) {
	dst.shards = append([]*Index(nil), ss.shards...)
	dst.offsets = append([]int(nil), ss.offsets...)
	dst.shardDead = make([]int, len(ss.shards))
	copy(dst.shardDead, ss.shardDead)
	dst.dead = make(map[int]bool, len(ss.dead))
	for slot := range ss.dead {
		dst.dead[slot] = true
	}
	dst.ids = ids
	dst.attrs = ss.attrs.Slice(rows)
}

// shardOf returns the shard covering slot, or -1 when the slot lies past
// the indexed rows.
func (ss *shardSet) shardOf(slot int) int {
	if slot >= ss.rows() {
		return -1
	}
	return sort.SearchInts(ss.offsets, slot+1) - 1
}

// acceptFunc builds the per-shard candidate predicate of a filtered or
// cursor query: live (not tombstoned) and matching the filter; nil when
// neither tombstones nor filter terms exclude anything. local ids are
// shard-local; off is the shard's slot offset.
func (ss *shardSet) acceptFunc(f *Filter, off int) func(int) bool {
	attrs, dead := ss.attrs, ss.dead
	if len(dead) == 0 {
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
	if slot < 0 || slot >= sx.rows() || sx.dead[slot] {
		return 0, false
	}
	return slot, true
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
func (sx *ShardedIndex) Len() int { return sx.rows() - len(sx.dead) }

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
