package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"lccs/internal/vec"
)

// checker verifies served answers against what the client knows about
// the rows. It trusts nothing the server reports beyond its answers.
type checker struct {
	metric vec.Metric
	// vector returns the row stored under id, nil when no acknowledged
	// or in-flight write ever produced it.
	vector func(id int32) []float32
	// tenant returns a row's tenant; nil when rows carry none.
	tenant func(id int32) int64
	// deletedAt holds, per acknowledged delete, when its reply arrived.
	deletedAt map[int32]time.Duration
}

// searchFault returns why a search answer is wrong, or "" when it is
// right: the status is 200; k distinct results came back (every query
// here has at least k live matching rows); each id is known and was not
// deleted before the search was sent; each result satisfies the filter;
// distances ascend and match an exact recomputation.
func (c *checker) searchFault(r *record, q []float32, tenant int64) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d %s", r.status, r.bad)
	}
	if r.bad != "" {
		return r.bad
	}
	if len(r.ids) != k {
		return fmt.Sprintf("%d results, want %d", len(r.ids), k)
	}
	seen := make(map[int32]bool, len(r.ids))
	for i, id := range r.ids {
		if seen[id] {
			return fmt.Sprintf("id %d returned twice", id)
		}
		seen[id] = true
		v := c.vector(id)
		if v == nil {
			return fmt.Sprintf("id %d was never written", id)
		}
		if at, ok := c.deletedAt[id]; ok && at <= r.start {
			return fmt.Sprintf("id %d was deleted before the search was sent", id)
		}
		if tenant >= 0 && c.tenant(id) != tenant {
			return fmt.Sprintf("id %d has tenant %d, filter asked for %d", id, c.tenant(id), tenant)
		}
		d := r.dists[i]
		if i > 0 && d < r.dists[i-1] {
			return fmt.Sprintf("distances not ascending at rank %d", i)
		}
		if exact := c.metric.Distance(v, q); math.Abs(d-exact) > 1e-4*math.Max(1, math.Abs(exact)) {
			return fmt.Sprintf("id %d served distance %g, exact %g", id, d, exact)
		}
	}
	return ""
}

// writeFault returns why a write reply is wrong, or "" when it is right:
// the status is 200 and a delete reports its (live) target deleted.
func writeFault(r *record) string {
	if r.status != http.StatusOK {
		return fmt.Sprintf("status %d %s", r.status, r.bad)
	}
	if r.bad != "" {
		return r.bad
	}
	if r.kind == opDelete && r.ids[0] != 1 {
		return fmt.Sprintf("delete of a live id reported %d deleted", r.ids[0])
	}
	return ""
}

// tally counts failures by reason and keeps the first example of each.
type tally struct {
	attempted, failed int64
	reasons           map[string]int
}

func (t *tally) add(fault string) {
	t.attempted++
	if fault == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[fault]++
}

// summary lists up to five failure reasons, most frequent first.
func (t *tally) summary() []string {
	type kv struct {
		reason string
		n      int
	}
	var all []kv
	for r, n := range t.reasons {
		all = append(all, kv{r, n})
	}
	sort.Slice(all, func(i, j int) bool {
		return all[i].n > all[j].n || all[i].n == all[j].n && all[i].reason < all[j].reason
	})
	var out []string
	for i := 0; i < len(all) && i < 5; i++ {
		out = append(out, fmt.Sprintf("%d× %s", all[i].n, all[i].reason))
	}
	return out
}

// exactTopK returns, by brute force, the ids of the k rows nearest to q
// among the rows of store for which keep holds (nil keeps all); ids[i]
// is the id of store row i. dists is scratch of at least store.Len().
func exactTopK(store *vec.Store, ids []int32, q []float32, m vec.Metric, keep func(int32) bool, dists []float32) []int32 {
	n := store.Len()
	store.DistancesInto(0, n, q, m, dists)
	type cand struct {
		d  float32
		id int32
	}
	best := make([]cand, 0, k+1)
	for i := 0; i < n; i++ {
		id := ids[i]
		if keep != nil && !keep(id) {
			continue
		}
		c := cand{dists[i], id}
		if len(best) == k && (c.d > best[k-1].d || c.d == best[k-1].d && c.id > best[k-1].id) {
			continue
		}
		j := len(best)
		best = append(best, c)
		for j > 0 && (best[j-1].d > c.d || best[j-1].d == c.d && best[j-1].id > c.id) {
			best[j] = best[j-1]
			j--
		}
		best[j] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]int32, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// liveSet is a flat copy of the live rows with their ids, for exact
// ground truth.
type liveSet struct {
	store *vec.Store
	ids   []int32
}

func newLiveSet(dim int, rows map[int32][]float32) *liveSet {
	ids := make([]int32, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := vec.NewStore(dim)
	for _, id := range ids {
		s.Append(rows[id])
	}
	return &liveSet{store: s, ids: ids}
}

// rowsLiveSet wraps rows whose ids are their positions.
func rowsLiveSet(rows [][]float32) (*liveSet, error) {
	s, err := vec.FromRows(rows)
	if err != nil {
		return nil, err
	}
	ids := make([]int32, len(rows))
	for i := range ids {
		ids[i] = int32(i)
	}
	return &liveSet{store: s, ids: ids}, nil
}

// truth computes the exact top-k of every query; tenants may be nil.
func (ls *liveSet) truth(qs [][]float32, tenants []int64, m vec.Metric, tenantOf func(int32) int64) [][]int32 {
	out := make([][]int32, len(qs))
	dists := make([]float32, ls.store.Len())
	for i, q := range qs {
		var keep func(int32) bool
		if tenants != nil {
			t := tenants[i]
			keep = func(id int32) bool { return tenantOf(id) == t }
		}
		out[i] = exactTopK(ls.store, ls.ids, q, m, keep, dists)
	}
	return out
}
