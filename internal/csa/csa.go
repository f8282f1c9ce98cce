// Package csa implements the Circular Shift Array of the paper (§3.2): a
// suffix-array-inspired index over n equal-length strings that answers
// k-Longest-Circular-Co-Substring (k-LCCS) queries.
//
// The index consists of m sorted orders — one per circular shift — plus m
// "next links" that map a string's rank at shift i to its rank at shift
// (i+1) mod m (Algorithm 1). A query performs one full binary search at
// shift 0 and then narrows every subsequent shift's search range through
// the next links (Lemma 3.1 / Corollary 3.2), finally merging the 2m
// sorted neighborhoods with a priority queue to emit candidates in
// non-increasing LCCS-length order (Algorithm 2).
package csa

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"lccs/internal/pqueue"
)

// CSA is an immutable Circular Shift Array over n strings of length m.
// Build one with New; run queries through a Searcher.
//
// All three index structures are flat contiguous blocks rather than
// slices of slices: the query hot path walks sorted orders and next
// links for every shift, and a flat layout turns those lookups into
// strided reads of one block instead of a pointer chase per shift.
type CSA struct {
	n, m int
	// data holds the n strings row-major: symbol j of string id is
	// data[id*m + j].
	data []int32
	// sorted holds the m sorted orders back to back: sorted[i*n + rank]
	// is the id of the rank-th smallest string when strings are compared
	// circularly starting at position i (the paper's I_{i+1} over
	// shift(T, i)).
	sorted []int32
	// next holds the m next-link arrays back to back: next[i*n + rank]
	// is the rank, in shift (i+1) mod m's order, of the string at
	// sorted[i*n + rank] (the paper's N_{i+1}).
	next []int32
}

// sortedRow returns the sorted order of shift i as a view into the flat
// block.
func (c *CSA) sortedRow(i int) []int32 {
	return c.sorted[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// nextRow returns the next-link array of shift i as a view into the
// flat block.
func (c *CSA) nextRow(i int) []int32 {
	return c.next[i*c.n : (i+1)*c.n : (i+1)*c.n]
}

// New builds a CSA over the given equal-length strings (Algorithm 1).
// It runs the m sorts on all available CPUs. New panics if strings is
// empty or lengths differ; those are programming errors in callers.
func New(strings [][]int32) *CSA {
	n := len(strings)
	if n == 0 {
		panic("csa: no strings")
	}
	m := len(strings[0])
	if m == 0 {
		panic("csa: empty strings")
	}
	data := make([]int32, n*m)
	for id, s := range strings {
		if len(s) != m {
			panic(fmt.Sprintf("csa: string %d has length %d, want %d", id, len(s), m))
		}
		copy(data[id*m:], s)
	}
	return NewFromFlat(data, n, m)
}

// NewFromFlat builds a CSA from a row-major n×m symbol block. The block is
// retained by the CSA and must not be modified afterwards.
func NewFromFlat(data []int32, n, m int) *CSA {
	if len(data) != n*m {
		panic("csa: flat data size mismatch")
	}
	c := &CSA{n: n, m: m, data: data}
	c.sorted = make([]int32, m*n)

	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	shifts := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range shifts {
				c.sortShift(i)
			}
		}()
	}
	for i := 0; i < m; i++ {
		shifts <- i
	}
	close(shifts)
	wg.Wait()

	// Next links: next[i·n + rank(id at shift i)] = rank(id at shift i+1).
	c.next = make([]int32, m*n)
	pos := make([]int32, n)
	for i := 0; i < m; i++ {
		ni := (i + 1) % m
		for r, id := range c.sortedRow(ni) {
			pos[id] = int32(r)
		}
		links := c.nextRow(i)
		for r, id := range c.sortedRow(i) {
			links[r] = pos[id]
		}
	}
	return c
}

// sortShift fills shift i's region of the flat sorted block with string
// ids ordered by circular comparison from shift i, ties broken by id so
// the order is deterministic. Regions of distinct shifts are disjoint,
// so the m sorts run in parallel without coordination.
func (c *CSA) sortShift(i int) {
	ids := c.sortedRow(i)
	for j := range ids {
		ids[j] = int32(j)
	}
	sort.Slice(ids, func(a, b int) bool {
		cmp := c.compareStrings(ids[a], ids[b], i)
		if cmp != 0 {
			return cmp < 0
		}
		return ids[a] < ids[b]
	})
}

// compareStrings lexicographically compares strings a and b circularly
// from position shift.
func (c *CSA) compareStrings(a, b int32, shift int) int {
	m := c.m
	ra := c.data[int(a)*m : int(a)*m+m]
	rb := c.data[int(b)*m : int(b)*m+m]
	p := shift
	for i := 0; i < m; i++ {
		av, bv := ra[p], rb[p]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
		p++
		if p >= m {
			p = 0
		}
	}
	return 0
}

// compareToQuery compares the data string id (circularly from shift)
// against the query string q (circularly from shift).
func (c *CSA) compareToQuery(id int32, q []int32, shift int) int {
	m := c.m
	row := c.data[int(id)*m : int(id)*m+m]
	p := shift
	for i := 0; i < m; i++ {
		av, bv := row[p], q[p]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
		p++
		if p >= m {
			p = 0
		}
	}
	return 0
}

// lcpWithQuery returns the length of the longest common prefix of the data
// string id and the query q, both read circularly from position shift.
// The result is capped at m.
func (c *CSA) lcpWithQuery(id int32, q []int32, shift int) int32 {
	m := c.m
	row := c.data[int(id)*m : int(id)*m+m]
	p := shift
	for i := 0; i < m; i++ {
		if row[p] != q[p] {
			return int32(i)
		}
		p++
		if p >= m {
			p = 0
		}
	}
	return int32(m)
}

// N returns the number of indexed strings.
func (c *CSA) N() int { return c.n }

// M returns the string length (the number of circular shifts).
func (c *CSA) M() int { return c.m }

// String returns a copy of the indexed string with the given id.
func (c *CSA) String(id int) []int32 {
	out := make([]int32, c.m)
	copy(out, c.data[id*c.m:(id+1)*c.m])
	return out
}

// Bytes returns the approximate memory footprint of the index in bytes:
// the symbol block plus the m sorted orders and m next-link arrays.
func (c *CSA) Bytes() int64 {
	return int64(c.n) * int64(c.m) * 4 * 3
}

// Result is one k-LCCS answer: a string id and its LCCS length with the
// query (the longest circular co-substring length, in [0, m]).
type Result struct {
	ID     int
	Length int
}

// entry is a frontier element of the 2m-way merge: the string at rank pos
// in sorted[shift] matches probe query #probe with an LCP of len symbols
// from that shift; dir is the direction this frontier advances in.
type entry struct {
	len   int32
	pos   int32
	shift int32
	dir   int32
	probe int32
}

// bounds records the outcome of the binary search at one shift, kept both
// for the next-link narrowing and for the multi-probe skip rule (§4.2).
type bounds struct {
	posL, posU int32
	lenL, lenU int32
	// validL/validU report whether the corresponding bound satisfies the
	// ordering precondition of Lemma 3.1 (T_l ⪯ Q, resp. Q ≺ T_u); a
	// clamped bound at the edge of the array does not.
	validL, validU bool
}

// Searcher runs k-LCCS queries against one CSA. It owns reusable scratch
// (visited stamps, per-shift bounds, the merge heap, the flat query
// buffer) and is therefore not safe for concurrent use; create one
// Searcher per goroutine — or, as the core index does, keep Searchers in
// a sync.Pool. At steady state (buffers grown to their working size) a
// full Begin/Next drain performs no heap allocations.
type Searcher struct {
	c       *CSA
	heap    *pqueue.Heap[entry]
	bounds  []bounds
	visited []int32
	gen     int32
	// qbuf holds one query string per probe issued so far in the current
	// search, back to back: probe p occupies qbuf[p*m : (p+1)*m] (probe 0
	// is the unperturbed query). The buffer is reused across searches.
	qbuf []int32
	// stats
	comparisons int
}

// query returns probe p's query string as a view into the flat buffer.
func (s *Searcher) query(p int32) []int32 {
	m := s.c.m
	return s.qbuf[int(p)*m : (int(p)+1)*m]
}

// pushQuery copies q into the flat query buffer as the next probe and
// returns its index. Steady state reuses the buffer's capacity.
func (s *Searcher) pushQuery(q []int32) int32 {
	s.qbuf = append(s.qbuf, q...)
	return int32(len(s.qbuf)/s.c.m - 1)
}

// NewSearcher returns a fresh Searcher for c.
func (c *CSA) NewSearcher() *Searcher {
	return &Searcher{
		c: c,
		heap: pqueue.NewWithCapacity(2*c.m+16, func(a, b entry) bool {
			if a.len != b.len {
				return a.len > b.len
			}
			// Deterministic tie-break keeps runs reproducible.
			if a.shift != b.shift {
				return a.shift < b.shift
			}
			return a.dir < b.dir
		}),
		bounds:  make([]bounds, c.m),
		visited: make([]int32, c.n),
		gen:     0,
	}
}

// reset prepares the reusable scratch for a fresh search: empty heap
// and query buffer, a new visited generation (re-stamping the visited
// array only on the rare int32 wrap), zeroed counters.
func (s *Searcher) reset() {
	s.heap.Reset()
	if s.gen == math.MaxInt32 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 0
	}
	s.gen++
	s.comparisons = 0
	s.qbuf = s.qbuf[:0]
}

// searchRange binary-searches sorted[shift] in rank range [lo, hi]
// (inclusive) for the query q read circularly from shift. It returns the
// clamped lower/upper bound ranks, their LCP lengths with q, and whether
// each bound satisfies its ordering precondition.
func (s *Searcher) searchRange(q []int32, shift, lo, hi int) bounds {
	c := s.c
	order := c.sortedRow(shift)
	// Find the first rank in [lo, hi+1) whose string compares strictly
	// greater than q; strings equal to q count as ⪯ q.
	first := lo + sort.Search(hi-lo+1, func(i int) bool {
		s.comparisons++
		return c.compareToQuery(order[lo+i], q, shift) > 0
	})
	var b bounds
	// posL is the last rank with T ⪯ q. If none in range, clamp to lo.
	if first > lo {
		b.posL = int32(first - 1)
		b.validL = true
	} else {
		b.posL = int32(lo)
		b.validL = false
	}
	// posU is the first rank with q ≺ T. If none in range, clamp to hi.
	if first <= hi {
		b.posU = int32(first)
		b.validU = true
	} else {
		b.posU = int32(hi)
		b.validU = false
	}
	b.lenL = c.lcpWithQuery(order[b.posL], q, shift)
	b.lenU = c.lcpWithQuery(order[b.posU], q, shift)
	return b
}

// Begin starts a new k-LCCS search for query q (Algorithm 2, lines 1–11):
// it computes the per-shift bounds — a full binary search at shift 0, then
// next-link-narrowed searches — and seeds the merge heap. Candidates are
// then pulled with Next. q must have length m; Begin copies it.
func (s *Searcher) Begin(q []int32) {
	c := s.c
	if len(q) != c.m {
		panic(fmt.Sprintf("csa: query length %d, want %d", len(q), c.m))
	}
	s.reset()
	qc := s.query(s.pushQuery(q))

	for i := 0; i < c.m; i++ {
		var lo, hi = 0, c.n - 1
		if i > 0 {
			prev := s.bounds[i-1]
			// Corollary 3.2, applied per side: a bound whose LCP
			// with the query is ≥ 1 shifts into a valid bound for
			// the next shift's search range.
			links := c.nextRow(i - 1)
			if prev.validL && prev.lenL >= 1 {
				lo = int(links[prev.posL])
			}
			if prev.validU && prev.lenU >= 1 {
				hi = int(links[prev.posU])
			}
			if lo > hi {
				// Defensive: cannot happen for a correctly
				// ordered index, but a full search is always
				// safe.
				lo, hi = 0, c.n-1
			}
		}
		b := s.searchRange(qc, i, lo, hi)
		s.bounds[i] = b
		s.heap.Push(entry{len: b.lenL, pos: b.posL, shift: int32(i), dir: -1, probe: 0})
		s.heap.Push(entry{len: b.lenU, pos: b.posU, shift: int32(i), dir: +1, probe: 0})
	}
}

// BeginSimple is the unoptimized variant of Begin used as an ablation
// baseline: every shift runs a full-range binary search (the "simple
// method" of §3.2 with O(m(m + log n)) query time), with no next-link
// narrowing.
func (s *Searcher) BeginSimple(q []int32) {
	c := s.c
	if len(q) != c.m {
		panic(fmt.Sprintf("csa: query length %d, want %d", len(q), c.m))
	}
	s.reset()
	qc := s.query(s.pushQuery(q))

	for i := 0; i < c.m; i++ {
		b := s.searchRange(qc, i, 0, c.n-1)
		s.bounds[i] = b
		s.heap.Push(entry{len: b.lenL, pos: b.posL, shift: int32(i), dir: -1, probe: 0})
		s.heap.Push(entry{len: b.lenU, pos: b.posU, shift: int32(i), dir: +1, probe: 0})
	}
}

// Next pops the next distinct candidate in non-increasing LCCS-length
// order (Algorithm 2, lines 12–15). ok is false when the frontier is
// exhausted. The returned Length is the LCP at the emitting shift, which
// for the first emission of an id equals its LCCS length with the query.
func (s *Searcher) Next() (Result, bool) {
	c := s.c
	for s.heap.Len() > 0 {
		e := s.heap.Pop()
		order := c.sortedRow(int(e.shift))
		id := order[e.pos]
		// Advance this frontier before the dedup check so the lane
		// keeps producing candidates.
		npos := e.pos + e.dir
		if npos >= 0 && npos < int32(c.n) {
			q := s.query(e.probe)
			nid := order[npos]
			s.heap.Push(entry{
				len:   c.lcpWithQuery(nid, q, int(e.shift)),
				pos:   npos,
				shift: e.shift,
				dir:   e.dir,
				probe: e.probe,
			})
		}
		if s.visited[id] == s.gen {
			continue
		}
		s.visited[id] = s.gen
		return Result{ID: int(id), Length: int(e.len)}, true
	}
	return Result{}, false
}

// Search answers a k-LCCS query end to end: the k distinct strings with
// the longest LCCS against q, in non-increasing length order. Fewer than k
// results are returned only when k > n.
func (s *Searcher) Search(q []int32, k int) []Result {
	s.Begin(q)
	return s.drainInto(k, make([]Result, 0, k))
}

// SearchSimple is Search without the next-link narrowing (ablation).
func (s *Searcher) SearchSimple(q []int32, k int) []Result {
	s.BeginSimple(q)
	return s.drainInto(k, make([]Result, 0, k))
}

func (s *Searcher) drainInto(k int, out []Result) []Result {
	for len(out) < k {
		r, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Comparisons returns the number of string comparisons performed by the
// bounds phase of the most recent Begin/BeginSimple (a proxy for binary
// search work, used by ablation benchmarks).
func (s *Searcher) Comparisons() int { return s.comparisons }

// AffectedShifts appends to dst the shifts whose binary-search outcome can
// change when the query is modified at the given positions, per the
// skip-unaffected-positions rule of §4.2: shift i is affected iff some
// modified position p lies within the inspected window
// (p − i) mod m ≤ max(lenL_i, lenU_i). Positions must be in [0, m).
func (s *Searcher) AffectedShifts(dst []int, modified []int) []int {
	m := s.c.m
	for i := 0; i < m; i++ {
		maxLen := s.bounds[i].lenL
		if s.bounds[i].lenU > maxLen {
			maxLen = s.bounds[i].lenU
		}
		for _, p := range modified {
			d := p - i
			if d < 0 {
				d += m
			}
			if int32(d) <= maxLen {
				dst = append(dst, i)
				break
			}
		}
	}
	return dst
}

// Probe injects a perturbed query into the ongoing search (MP-LCCS-LSH,
// §4.2): pq is the full perturbed hash string and modified lists the
// positions where it differs from the original query. Only the affected
// shifts are re-searched (full-range binary searches); their frontiers are
// pushed into the shared merge heap so subsequent Next calls interleave
// candidates from all probes issued so far, deduplicated against earlier
// emissions. scratch is an optional reusable buffer for the affected-shift
// list.
func (s *Searcher) Probe(pq []int32, modified []int, scratch []int) []int {
	c := s.c
	if len(pq) != c.m {
		panic(fmt.Sprintf("csa: probe length %d, want %d", len(pq), c.m))
	}
	probe := s.pushQuery(pq)
	qc := s.query(probe)

	scratch = s.AffectedShifts(scratch[:0], modified)
	for _, i := range scratch {
		b := s.searchRange(qc, i, 0, c.n-1)
		s.heap.Push(entry{len: b.lenL, pos: b.posL, shift: int32(i), dir: -1, probe: probe})
		s.heap.Push(entry{len: b.lenU, pos: b.posU, shift: int32(i), dir: +1, probe: probe})
	}
	return scratch
}

// ProbeFull is Probe without the skip-unaffected-positions optimization:
// every shift is re-searched. Used by the ablation benchmarks.
func (s *Searcher) ProbeFull(pq []int32) {
	c := s.c
	probe := s.pushQuery(pq)
	qc := s.query(probe)
	for i := 0; i < c.m; i++ {
		b := s.searchRange(qc, i, 0, c.n-1)
		s.heap.Push(entry{len: b.lenL, pos: b.posL, shift: int32(i), dir: -1, probe: probe})
		s.heap.Push(entry{len: b.lenU, pos: b.posU, shift: int32(i), dir: +1, probe: probe})
	}
}
