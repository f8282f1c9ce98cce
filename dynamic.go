package lccs

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lccs/internal/idmap"
	"lccs/internal/vec"
)

// cursorEpoch seeds each DynamicIndex's write generation with an
// instance-unique starting value: time-seeded so generations never
// repeat across process restarts, strided so two instances in one
// process (e.g. a durable index before and after crash recovery) can
// never reach each other's range by ordinary write bumps. A cursor
// token is thereby bound to the index *instance* that minted it — after
// any reopen the token is rejected (ErrCursorStale) instead of silently
// resuming over a replayed, possibly renumbered result stream.
var cursorEpoch atomic.Uint64

func init() { cursorEpoch.Store(uint64(time.Now().UnixNano())) }

func nextCursorEpoch() uint64 { return cursorEpoch.Add(1 << 32) }

// DynamicIndex supports online inserts and deletes on top of the static
// CSA structure with a delta-main architecture: new vectors accumulate in
// an unindexed buffer that queries scan exactly, and when the buffer
// exceeds a threshold it is frozen and built into a new index shard **in
// the background** — writers keep appending to a fresh buffer while the
// shard builds, and the finished shard is swapped in under the write lock
// in O(1). The main index is therefore a growing sequence of immutable
// shards covering disjoint, contiguous id ranges; queries fan out across
// the shards and the buffer.
//
// Deletes are a first-class part of the lifecycle. A Delete tombstones
// the vector immediately (it stops appearing in results); the physical
// row is reclaimed by compaction: the background delta build drops
// tombstoned rows from the buffer before indexing it, and an explicit
// Rebuild compacts every shard and the buffer into one index over only
// the live rows — clearing the tombstone set and releasing the memory.
// Because compaction moves rows, vectors are addressed by stable
// external ids maintained in an idmap.Map: the id Add returns is valid
// forever, deleted ids are never reissued, and until the first
// compaction the mapping is a zero-cost identity.
//
// All vectors live in one growing flat store (vec.Store): Add copies the
// vector to the end of the contiguous block, shards index stable views
// of it, and the unindexed buffer is scanned with the store's bulk
// distance kernel — one forward pass over contiguous memory.
//
// Vector ids are assignment-ordered and stable across rebuilds and
// compactions: the i-th vector ever added (counting the initial
// dataset) has id i, forever. DynamicIndex is safe for concurrent use;
// neither readers nor writers are blocked by a background shard build
// beyond the O(1) swap.
//
// A DynamicIndex alone holds every write since the last Snapshot only
// in memory. For crash durability — inserts and deletes journaled in a
// write-ahead log before they are acknowledged, replayed on reopen —
// use OpenDurable, which wraps a DynamicIndex in a DurableIndex.
type DynamicIndex struct {
	mu   sync.RWMutex
	cond *sync.Cond // signaled when a background build finishes; L = &mu
	cfg  Config
	// cfgResolved is set once a build has resolved derived config fields
	// (bucket width); later shards reuse the same resolved values so all
	// shards are seed-equivalent.
	cfgResolved bool
	store       *vec.Store // all live (plus not-yet-compacted) rows, slot-ordered
	// main is the indexed part: immutable shards over the store prefix
	// [0, main.rows()), everything past it being the unindexed buffer.
	// Its lifecycle state spans the whole store: main.ids maps stable
	// external ids ⇔ dense slots (compaction shifts slots, never ids;
	// never nil here), main.dead is the tombstone set keyed by slot
	// (compaction removes reclaimed slots), and main.attrs holds the
	// optional per-vector metadata, slot-aligned with the store (rows
	// beyond its length have none; nil until the first attributed
	// insert).
	main shardSet
	// rebuildAt triggers a background shard build when the buffer
	// reaches this size.
	rebuildAt int
	// building marks an in-flight background shard build (at most one).
	building bool
	// gen invalidates in-flight builds: Rebuild bumps it and a completing
	// background build from an older generation is discarded.
	gen uint64
	// buildErr holds the most recent background build failure; it is
	// surfaced (and cleared) by the next Add. A successful explicit
	// Rebuild supersedes the failed delta and clears it unseen.
	buildErr error
	// writes is the write generation guarding open cursors: any change
	// that could reorder or renumber the result stream — insert, delete,
	// compaction, shard swap-in, rebuild — bumps it, and a cursor token
	// minted under an older generation is rejected.
	writes uint64
}

// DefaultRebuildThreshold is the buffer size that triggers a background
// shard build.
const DefaultRebuildThreshold = 4096

// buildIndexOver resolves the configuration against a store and builds a
// facade index carrying attrs (the rows' attribute view, renumbered from
// 0; nil when none carry any) and its postings — the shared path of the
// dynamic build sites (initial build, background delta shard,
// compaction, snapshot tail).
func buildIndexOver(store *vec.Store, attrs *vec.MetaStore, cfg Config) (*Index, error) {
	cfg, err := resolveConfig(store, cfg)
	if err != nil {
		return nil, err
	}
	ix, err := newIndexFromStore(store, cfg)
	if err != nil {
		return nil, err
	}
	ix.adoptAttrs(attrs)
	return ix, nil
}

// NewDynamicIndex builds a dynamic index over an initial dataset (which
// may be empty — pass nil — if all data arrives via Add). rebuildAt ≤ 0
// selects DefaultRebuildThreshold. The initial rows are copied into the
// index's flat store; data itself is not retained.
func NewDynamicIndex(data [][]float32, cfg Config, rebuildAt int) (*DynamicIndex, error) {
	if rebuildAt <= 0 {
		rebuildAt = DefaultRebuildThreshold
	}
	store, err := storeFromRows(data)
	if err != nil {
		return nil, err
	}
	d := &DynamicIndex{cfg: cfg, store: store, rebuildAt: rebuildAt, writes: nextCursorEpoch()}
	d.main.offsets = []int{0}
	d.main.ids = idmap.New(store.Len())
	d.main.dead = make(map[int]bool)
	d.cond = sync.NewCond(&d.mu)
	if store.Len() > 0 {
		ix, err := buildIndexOver(store.Slice(0, store.Len()), nil, cfg)
		if err != nil {
			return nil, err
		}
		d.adoptConfigLocked(ix)
		d.main.appendShard(ix, 0)
		return d, nil
	}
	// No build runs yet on an empty start, so resolve the default budget
	// here and reject a config the first build (or query) would
	// otherwise fail on — turning a construction-time error into a
	// runtime surprise.
	if d.cfg.Budget == 0 {
		d.cfg.Budget = defaultBudget
	}
	if err := validateConfig(d.cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// NewDynamicIndexFromSharded wraps an existing ShardedIndex — typically
// a snapshot written at shutdown and reloaded with LoadSharded — as a
// DynamicIndex, so a warm restart stays writable without rebuilding:
// the sharded index's shards become the dynamic main, new inserts
// buffer on top. data must be the slice the sharded index was built or
// loaded over (ids keep indexing it); the dynamic index adopts the
// sharded index's flat store rather than copying it. rebuildAt ≤ 0
// selects DefaultRebuildThreshold.
func NewDynamicIndexFromSharded(sx *ShardedIndex, data [][]float32, rebuildAt int) (*DynamicIndex, error) {
	if slots := sx.rows(); slots != len(data) {
		return nil, fmt.Errorf("lccs: sharded index covers %d vectors, data has %d", slots, len(data))
	}
	return NewDynamicIndexFromShardedStore(sx, rebuildAt)
}

// NewDynamicIndexFromShardedStore is NewDynamicIndexFromSharded without
// the row-slice cross-check: the sharded index's own flat store is
// adopted directly, so a warm restart (LoadShardedStore over a
// flat-loaded dataset) never materializes per-row slices. rebuildAt ≤ 0
// selects DefaultRebuildThreshold.
func NewDynamicIndexFromShardedStore(sx *ShardedIndex, rebuildAt int) (*DynamicIndex, error) {
	slots := sx.rows()
	if rebuildAt <= 0 {
		rebuildAt = DefaultRebuildThreshold
	}
	d := &DynamicIndex{
		cfg:         sx.cfg, // container headers hold the resolved config
		cfgResolved: true,
		// Adopt a capped view of the sharded index's store: the first
		// Add then grows a private copy of the block, so the still-live
		// ShardedIndex (documented safe for concurrent queries) is
		// never mutated, whichever constructor produced it.
		store:     sx.store.Slice(0, slots),
		rebuildAt: rebuildAt,
		writes:    nextCursorEpoch(),
	}
	// Adopt the sharded index's set, lifecycle state included — the id
	// map and the tombstones a PKG3 snapshot carries across a restart —
	// so deleted ids stay dead and id allocation resumes past the
	// watermark.
	ids := idmap.New(slots)
	if sx.ids != nil {
		ids = sx.ids.Clone()
	}
	sx.copyTo(&d.main, slots, ids)
	d.cond = sync.NewCond(&d.mu)
	return d, nil
}

// adoptConfigLocked stores the resolved configuration of the first built
// index so every later shard hashes with seed-equivalent parameters.
func (d *DynamicIndex) adoptConfigLocked(ix *Index) {
	if !d.cfgResolved {
		d.cfg = ix.cfg
		d.cfgResolved = true
	}
}

// Add inserts a vector (copied into the flat store) and returns its id.
// Crossing the rebuild threshold starts a background shard build; Add
// itself never blocks on index construction. If a previous background
// build failed, its error is returned here (the insert itself still
// succeeded) and cleared.
func (d *DynamicIndex) Add(v []float32) (int, error) {
	return d.AddWithAttrs(v, nil)
}

// AddWithAttrs is Add with optional metadata attached to the vector:
// the attributes become filterable (SearchCostInto, SearchCursor) and
// travel through snapshots and (on a DurableIndex) the WAL. A nil attrs
// is exactly Add. A vector with a NaN or ±Inf component is rejected
// with ErrNonFiniteVector: its distances would order nothing.
func (d *DynamicIndex) AddWithAttrs(v []float32, a Attrs) (int, error) {
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return 0, fmt.Errorf("%w: component %d is %v", ErrNonFiniteVector, i, x)
		}
	}
	return d.add(v, a)
}

// add is AddWithAttrs without the finiteness check — the WAL replay
// path, which must keep recovering rows journaled before the check
// existed.
func (d *DynamicIndex) add(v []float32, a Attrs) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(v) == 0 {
		return 0, ErrEmptyVector
	}
	if dim := d.store.Dim(); dim != 0 && len(v) != dim {
		return 0, fmt.Errorf("%w: vector has %d dimensions, index has %d", ErrDimensionMismatch, len(v), dim)
	}
	slot := d.store.Append(v)
	if len(a) > 0 {
		if d.main.attrs == nil {
			d.main.attrs = vec.NewMetaStore(slot + 1)
		}
		d.main.attrs.PadTo(slot)
		d.main.attrs.Append(a)
	}
	id := d.main.ids.Alloc()
	d.writes++
	err := d.buildErr
	d.buildErr = nil
	d.maybeStartBuildLocked()
	return id, err
}

// Attrs returns the metadata of the live vector with the given id, or
// nil.
func (d *DynamicIndex) Attrs(id int) Attrs {
	d.mu.RLock()
	defer d.mu.RUnlock()
	slot, ok := d.main.ids.Slot(id)
	if !ok || d.main.dead[slot] {
		return nil
	}
	return d.main.attrs.Row(slot)
}

// maybeStartBuildLocked freezes the buffer into a background shard build
// when it crossed the threshold and no build is already in flight. The
// buffer is compacted first — tombstoned rows that never made it into a
// shard are dropped before any index work is spent on them.
func (d *DynamicIndex) maybeStartBuildLocked() {
	if d.building || d.store.Len()-d.main.rows() < d.rebuildAt {
		return
	}
	d.compactBufferLocked()
	if d.store.Len()-d.main.rows() < d.rebuildAt {
		return // compaction shrank the buffer back under the threshold
	}
	d.building = true
	lo, hi := d.main.rows(), d.store.Len()
	// Freeze the delta: a Slice view is stable across later appends
	// (growth copies to a new block; in-place growth writes only beyond
	// hi), and vectors themselves are never mutated.
	delta := d.store.Slice(lo, hi)
	go d.buildShard(d.gen, lo, hi, delta, d.main.attrs.Range(lo, hi), d.cfg)
}

// compactBufferLocked physically drops tombstoned rows from the
// unindexed buffer, remapping ids and releasing their slots; it reports
// whether anything was dropped. Rows already covered by an immutable
// shard are left in place (shard-local offsets depend on them); a full
// Rebuild reclaims those. The store is compacted by copy, never in
// place, so outstanding views — shard stores, snapshot rows, a frozen
// delta being indexed in the background — are unaffected; callers that
// compact while a background build may be in flight must invalidate it
// (bump d.gen), because the build's [lo, hi) range names pre-compaction
// slots.
func (d *DynamicIndex) compactBufferLocked() bool {
	indexed, dead := d.main.rows(), d.main.dead
	buffered := 0
	for slot := range dead {
		if slot >= indexed {
			buffered++
		}
	}
	if buffered == 0 {
		return false
	}
	isDead := func(slot int) bool { return dead[slot] }
	if d.main.attrs != nil {
		d.main.attrs = d.main.attrs.CompactCopy(d.store.Len(), indexed, isDead)
	}
	d.store = d.store.CompactCopy(indexed, isDead)
	d.main.ids.Compact(indexed, isDead)
	for slot := range dead {
		if slot >= indexed {
			delete(dead, slot)
		}
	}
	d.writes++ // compaction renumbers buffer slots; open cursors die
	return true
}

// buildShard builds one shard over a frozen delta outside the lock and
// swaps it in. A generation mismatch (an explicit Rebuild ran meanwhile)
// discards the result.
func (d *DynamicIndex) buildShard(gen uint64, lo, hi int, delta *vec.Store, attrs *vec.MetaStore, cfg Config) {
	ix, err := buildIndexOver(delta, attrs, cfg)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.building = false
	if d.gen == gen {
		if err != nil {
			d.buildErr = err
		} else {
			d.adoptConfigLocked(ix)
			// Deletes that landed in [lo, hi) while the shard was
			// building become its filter over-fetch allowance.
			dead := 0
			for slot := range d.main.dead {
				if slot >= lo && slot < hi {
					dead++
				}
			}
			d.main.appendShard(ix, dead)
			d.writes++ // source set changed; open cursors die
		}
	}
	if err == nil {
		// The buffer may have crossed the threshold again while this
		// shard was building — including the stale-generation case,
		// where writes during an explicit Rebuild are still unindexed.
		// After a failed build, don't retry in a loop; the next Add
		// surfaces the error and re-triggers.
		d.maybeStartBuildLocked()
	}
	d.cond.Broadcast()
}

// WaitRebuild blocks until no background shard build is in flight. It
// does not prevent a later Add from starting a new one.
func (d *DynamicIndex) WaitRebuild() {
	d.mu.Lock()
	for d.building {
		d.cond.Wait()
	}
	d.mu.Unlock()
}

// Delete tombstones a vector id: it stops appearing in results
// immediately, and its row is physically reclaimed by the next
// compaction (the background delta build for buffered rows, Rebuild for
// everything). It reports whether the id was live; deleting an unknown
// or already-deleted id is a no-op returning false.
func (d *DynamicIndex) Delete(id int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	slot, ok := d.main.ids.Slot(id)
	if !ok || d.main.dead[slot] {
		return false
	}
	d.main.dead[slot] = true
	if s := d.main.shardOf(slot); s >= 0 {
		d.main.shardDead[s]++
	}
	d.writes++
	return true
}

// Deleted returns the number of pending tombstones — deleted vectors
// whose rows the next compaction will reclaim.
func (d *DynamicIndex) Deleted() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.main.dead)
}

// idWatermark returns the next id Add will assign — the never-reused
// monotone allocation watermark the durable layer persists when there
// are no vectors left to carry it.
func (d *DynamicIndex) idWatermark() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.main.ids.Next()
}

// restoreWatermark installs a persisted id watermark on a freshly
// constructed, never-written index: the next Add allocates `next`, so
// ids deleted before the previous process emptied out are never
// reissued. It is the durable layer's recovery hook for the
// empty-snapshot manifest.
func (d *DynamicIndex) restoreWatermark(next int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.store.Len() != 0 || d.main.ids.Next() != 0 {
		return fmt.Errorf("lccs: watermark restore on a non-fresh index (%d rows, next id %d)", d.store.Len(), d.main.ids.Next())
	}
	m, err := idmap.Restore([]int{}, next)
	if err != nil {
		return err
	}
	d.main.ids = m
	return nil
}

// Rebuild synchronously compacts every shard and the buffer into a
// single index over only the live vectors: tombstoned rows are
// physically dropped, the tombstone set is cleared, and their memory is
// released (ids of surviving vectors are unchanged). It invalidates any
// in-flight background build and blocks readers and writers for the
// duration — the background path is the production path; Rebuild is for
// explicit compaction points.
func (d *DynamicIndex) Rebuild() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.gen++ // discard any in-flight background build
	// Compact into fresh state and commit only after the build succeeds,
	// so a failed rebuild leaves the index exactly as it was.
	store, ids, attrs := d.store, d.main.ids, d.main.attrs
	if len(d.main.dead) > 0 {
		isDead := func(slot int) bool { return d.main.dead[slot] }
		if attrs != nil {
			attrs = attrs.CompactCopy(d.store.Len(), 0, isDead)
		}
		store = d.store.CompactCopy(0, isDead)
		ids = d.main.ids.Clone()
		ids.Compact(0, isDead)
	}
	var ix *Index
	if n := store.Len(); n > 0 {
		var err error
		if ix, err = buildIndexOver(store.Slice(0, n), attrs.Range(0, n), d.cfg); err != nil {
			return err
		}
		d.adoptConfigLocked(ix)
	}
	// Everything deleted (or nothing ever added) leaves no index to
	// build and nothing buffered.
	d.store = store
	d.main.shards, d.main.offsets, d.main.shardDead = nil, []int{0}, nil
	d.main.dead, d.main.ids, d.main.attrs = make(map[int]bool), ids, attrs
	if ix != nil {
		d.main.appendShard(ix, 0)
	}
	d.buildErr = nil
	d.writes++
	return nil
}

// Len returns the number of live (non-deleted) vectors.
func (d *DynamicIndex) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.store.Len() - len(d.main.dead)
}

// Buffered returns the number of vectors not yet covered by an index
// shard (scanned exactly on every query). A background build in flight
// counts as buffered until its swap completes.
func (d *DynamicIndex) Buffered() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.store.Len() - d.main.rows()
}

// Dim returns the dimensionality of the stored vectors, or 0 before the
// first vector arrives.
func (d *DynamicIndex) Dim() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.store.Dim()
}

// Shards returns the number of index shards currently serving queries.
func (d *DynamicIndex) Shards() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.main.shards)
}

// Search returns the k nearest live vectors: every shard's candidates
// (at the default budget) merged with an exact scan of the buffer.
func (d *DynamicIndex) Search(q []float32, k int) ([]Neighbor, error) {
	return d.SearchCostInto(q, k, 0, nil, nil, nil, nil)
}

// SearchBudget is Search with an explicit candidate budget λ. As in
// ShardedIndex, the budget is divided across the index shards in
// proportion to their rows (⌈λ·n_s/n⌉ for a shard of n_s of the n
// indexed rows), so a given budget means comparable verification work
// on every Searcher backend and λ ≥ n stays exhaustive however uneven
// the shards grew; the insert buffer is always scanned exactly.
func (d *DynamicIndex) SearchBudget(q []float32, k, lambda int) ([]Neighbor, error) {
	if err := validateBudget(k, lambda); err != nil {
		return nil, err
	}
	return d.SearchCostInto(q, k, lambda, nil, nil, nil, nil)
}

// SearchCostInto is the dynamic index's one search body (see
// CostSearcher): the shard set's fan-out and merge, with the unindexed
// buffer as one more source. Each shard of a filtered query is planned
// as described on Filter — an exact posting-list gather or a CSA drain
// past non-matching and tombstoned rows; the buffer scan applies the
// predicate per row. A traced query records one shard_scan span per
// immutable shard, a buffer_scan span over the unindexed delta buffer,
// and a merge span, under a query root span.
func (d *DynamicIndex) SearchCostInto(q []float32, k, lambda int, f *Filter, dst []Neighbor, co *Cost, tr *Trace) ([]Neighbor, error) {
	if err := validateFilter(f); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lambda <= 0 {
		lambda = d.cfg.Budget
	}
	if err := validateQuery(q, d.store.Dim(), k, lambda); err != nil {
		return nil, err
	}
	if d.store.Len() == 0 {
		return nil, nil
	}
	return d.main.search(q, k, lambda, false, f, d.bufferLocked(), dst, co, tr), nil
}

// bufferLocked returns the unindexed delta buffer as a merge source.
func (d *DynamicIndex) bufferLocked() buffer {
	return buffer{store: d.store, metric: d.metricLocked()}
}

// Distance returns the configured metric's distance between two vectors.
func (d *DynamicIndex) Distance(a, b []float32) float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.metricLocked().Distance(a, b)
}

// Snapshot freezes the current contents into a point-in-time view: the
// slot-ordered vector slice (rows are views into the flat store) and a
// ShardedIndex over it, assembled from the existing immutable shards
// plus one freshly built shard covering the unindexed buffer. The
// ShardedIndex can be persisted with Save and reloaded against the
// returned vectors with LoadSharded, so buffered inserts survive a
// process restart without replaying them.
//
// Deletion state travels with the snapshot. The buffer is compacted
// first, so tombstones that never reached a shard are simply gone; the
// rest — tombstoned slots inside immutable shards, and the id map that
// keeps external ids stable across compactions — is carried by the
// ShardedIndex and persisted by Save in the LCCSPKG3 container. The
// snapshot therefore never resurrects a deleted id: not in its own
// results, and not after a save/load round trip. (The returned vector
// slice still includes rows tombstoned inside shards — the shard
// structures index them positionally — but no search will return them.)
//
// Snapshot blocks writers while the buffer shard builds; it is meant for
// shutdown and checkpoint paths, not the hot loop.
func (d *DynamicIndex) Snapshot() ([][]float32, *ShardedIndex, error) {
	frozen, sx, err := d.snapshotStore()
	if err != nil {
		return nil, nil, err
	}
	return frozen.Rows(), sx, nil
}

// snapshotStore is Snapshot returning the frozen flat store itself —
// the durable checkpoint path persists the block directly instead of
// materializing per-row views. The ShardedIndex is a copy of the main
// set plus a shard over the buffer.
func (d *DynamicIndex) snapshotStore() (*vec.Store, *ShardedIndex, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.compactBufferLocked() { // buffered tombstones never reach disk
		// Slots shifted: an in-flight background build over the
		// pre-compaction buffer must not swap in. Its completion handler
		// restarts a build over the corrected state.
		d.gen++
	}
	n := d.store.Len()
	if n == 0 {
		return nil, nil, errors.New("lccs: nothing to snapshot: empty dynamic index")
	}
	var tail *Index
	if indexed := d.main.rows(); indexed < n {
		var err error
		if tail, err = buildIndexOver(d.store.Slice(indexed, n), d.main.attrs.Range(indexed, n), d.cfg); err != nil {
			return nil, nil, err
		}
		d.adoptConfigLocked(tail)
	}
	frozen := d.store.Slice(0, n)
	sx := &ShardedIndex{cfg: d.cfg, store: frozen, dim: d.store.Dim()}
	var ids *idmap.Map
	if !d.main.ids.Identity() {
		ids = d.main.ids.Clone()
	}
	d.main.copyTo(&sx.shardSet, n, ids)
	if tail != nil {
		sx.appendShard(tail, 0) // the buffer was just compacted
	}
	return frozen, sx, nil
}

// Vector returns the vector stored under id as a read-only view into
// the flat store. Tombstoned ids keep answering until a compaction
// reclaims their row; afterwards (and for ids never assigned) Vector
// returns nil.
func (d *DynamicIndex) Vector(id int) []float32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	slot, ok := d.main.ids.Slot(id)
	if !ok {
		return nil
	}
	return d.store.Row(slot)
}

// metricLocked returns the configured distance metric, usable before the
// first index exists.
func (d *DynamicIndex) metricLocked() vec.Metric {
	if len(d.main.shards) > 0 {
		return d.main.shards[0].metric
	}
	// No index yet: resolve the metric from the config. familyFor needs
	// a dimension; any positive one works for metric resolution.
	dim := d.store.Dim()
	if dim == 0 {
		dim = 1
	}
	cfg := d.cfg
	if cfg.Metric == Euclidean && cfg.BucketWidth == 0 {
		cfg.BucketWidth = 1 // metric resolution only; not used for hashing
	}
	fam, err := familyFor(cfg, dim)
	if err != nil {
		// Unknown metric: surface loudly at query time.
		panic(err)
	}
	return fam.Metric()
}
