package lccs

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"lccs/internal/obs"
	"lccs/internal/pqueue"
)

// Cursor-paginated search. SearchCursor replaces one-shot top-k with
// direct access into the ranked result stream: each call returns the
// next `limit` results and an opaque continuation token. The token
// records, per result source (one per shard, plus the delta buffer on a
// DynamicIndex), how many results earlier pages consumed, together with
// a write-generation guard and a hash binding it to the query, filter,
// and budget it was minted for. Resuming re-fetches each source's top
// (consumed + limit) ranked stream, skips the consumed prefix, and
// merges by (distance, id) — the same deterministic order the one-shot
// tournament merge uses — so draining a cursor to exhaustion yields
// exactly the one-shot top-n ordering. Any write (insert, delete,
// compaction, background shard swap, rebuild) bumps the generation and
// invalidates outstanding tokens; immutable facades never invalidate.
//
// Ranking inside each source is budget-bound like any LCCS query: with
// an exhaustive budget (λ ≥ n) pagination is exact; under smaller
// budgets the per-source streams are the usual approximate rankings.
// Crucially the number of candidates each source verifies is pinned to
// the token's λ rather than the usual λ+k−1: the fetch size k grows
// with every page, and letting it widen the verified set would let a
// newly discovered candidate slide in ahead of the consumed prefix —
// duplicating one result and silently dropping another. With the
// candidate count fixed, a source's ranked stream is a deterministic
// function of (query, filter, λ) alone and deeper fetches only extend
// it.

// cursorFetch pins a source's verification work to exactly lambda
// candidates: the fetch size is capped at lambda (a λ-candidate stream
// cannot rank more than λ results) and the budget passed down
// compensates so nCand = λ' + k − 1 = λ on every page.
func cursorFetch(requested, lambda int) (kFetch, lambdaEff int) {
	kFetch = requested
	if kFetch > lambda {
		kFetch = lambda
	}
	return kFetch, lambda - kFetch + 1
}

// ErrCursorInvalid is returned for a malformed cursor token or one
// minted for a different query, filter, budget, or backend shape.
var ErrCursorInvalid = errors.New("lccs: invalid cursor token")

// ErrCursorStale is returned when the index was written to after the
// token was minted. It wraps ErrCursorInvalid.
var ErrCursorStale = fmt.Errorf("%w: invalidated by writes", ErrCursorInvalid)

// cursorToken is the decoded continuation state.
type cursorToken struct {
	gen    uint64 // backend write generation at mint time
	lambda int    // candidate budget the scan was started with
	hash   uint64 // binds the token to (query, filter)
	offs   []int  // per-source results consumed by earlier pages
}

const cursorVersion = 1

// cursorMaxSources bounds decoded source counts (corrupt tokens must
// not drive allocations).
const cursorMaxSources = 1 << 16

// encodeCursor serializes a token: URL-safe base64 over a versioned
// varint encoding.
func encodeCursor(t cursorToken) string {
	buf := make([]byte, 0, 16+10*len(t.offs))
	buf = append(buf, cursorVersion)
	buf = binary.AppendUvarint(buf, t.gen)
	buf = binary.AppendUvarint(buf, uint64(t.lambda))
	buf = binary.LittleEndian.AppendUint64(buf, t.hash)
	buf = binary.AppendUvarint(buf, uint64(len(t.offs)))
	for _, off := range t.offs {
		buf = binary.AppendUvarint(buf, uint64(off))
	}
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor parses a token; every failure is ErrCursorInvalid.
func decodeCursor(s string) (cursorToken, error) {
	var t cursorToken
	buf, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(buf) < 2 || buf[0] != cursorVersion {
		return t, ErrCursorInvalid
	}
	rest := buf[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	gen, ok := next()
	if !ok {
		return t, ErrCursorInvalid
	}
	lambda, ok := next()
	if !ok || lambda == 0 || lambda > math.MaxInt32 {
		return t, ErrCursorInvalid
	}
	if len(rest) < 8 {
		return t, ErrCursorInvalid
	}
	t.hash = binary.LittleEndian.Uint64(rest)
	rest = rest[8:]
	nsrc, ok := next()
	if !ok || nsrc == 0 || nsrc > cursorMaxSources {
		return t, ErrCursorInvalid
	}
	t.gen, t.lambda = gen, int(lambda)
	t.offs = make([]int, nsrc)
	for i := range t.offs {
		off, ok := next()
		if !ok || off > math.MaxInt32 {
			return t, ErrCursorInvalid
		}
		t.offs[i] = int(off)
	}
	if len(rest) != 0 {
		return t, ErrCursorInvalid
	}
	return t, nil
}

// cursorHash binds a token to the query and filter it was minted for.
func cursorHash(q []float32, f *Filter) uint64 {
	h := fnv.New64a()
	var word [4]byte
	for _, v := range q {
		binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
		h.Write(word[:])
	}
	h.Write(f.AppendKey(nil))
	return h.Sum64()
}

// cursorResume validates a continuation token against the current
// backend state and returns it; an empty cursor mints a fresh token.
func cursorResume(cursor string, q []float32, lambda int, f *Filter, gen uint64, nsrc int) (cursorToken, error) {
	if cursor == "" {
		return cursorToken{gen: gen, lambda: lambda, hash: cursorHash(q, f), offs: make([]int, nsrc)}, nil
	}
	t, err := decodeCursor(cursor)
	if err != nil {
		return t, err
	}
	if t.hash != cursorHash(q, f) {
		return t, fmt.Errorf("%w: token belongs to a different query", ErrCursorInvalid)
	}
	if t.gen != gen || len(t.offs) != nsrc {
		return t, ErrCursorStale
	}
	return t, nil
}

// mergeCursorPage pops up to limit results from the per-source sorted
// lists, starting at pos t.offs[i] in list i, advancing offsets in
// place. It merges by (Dist, ID) — identical to the tournament's
// tie-break — and reports whether every source is fully drained.
// requested[i] is how many results source i was asked for: a list
// shorter than its request has no more to give; a list that merely ran
// out of fetched entries cannot (and, because pos[i] never exceeds
// offs[i]+limit ≤ requested[i], does not) truncate the page.
func mergeCursorPage(lists [][]pqueue.Neighbor, requested []int, t *cursorToken, limit int, emit func(pqueue.Neighbor)) (exhausted bool) {
	pos := t.offs
	for i := range pos {
		if pos[i] > len(lists[i]) {
			pos[i] = len(lists[i])
		}
	}
	for emitted := 0; emitted < limit; emitted++ {
		bestSrc := -1
		var best pqueue.Neighbor
		for i, list := range lists {
			if pos[i] >= len(list) {
				continue
			}
			nb := list[pos[i]]
			if bestSrc < 0 || nb.Dist < best.Dist || (nb.Dist == best.Dist && nb.ID < best.ID) {
				bestSrc, best = i, nb
			}
		}
		if bestSrc < 0 {
			break
		}
		pos[bestSrc]++
		emit(best)
	}
	exhausted = true
	for i, list := range lists {
		// Unconsumed fetched results remain, or the source returned its
		// full request (it may hold more beyond what was fetched).
		if pos[i] < len(list) || len(list) >= requested[i] {
			exhausted = false
			break
		}
	}
	return exhausted
}

// SearchCursor pages through the ranked results of a (optionally
// filtered) scan of a static Index — a one-shard set. See Searcher.
func (ix *Index) SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) ([]Neighbor, string, error) {
	if lambda <= 0 {
		lambda = ix.cfg.Budget
	}
	ss := shardSet{shards: []*Index{ix}, offsets: []int{0, ix.Len()}, attrs: ix.attrs}
	return ss.cursor(q, ix.dim, limit, lambda, f, cursor, 0, buffer{})
}

// SearchCursor pages through the ranked, merged results of a sharded
// scan. See Searcher.
func (sx *ShardedIndex) SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) ([]Neighbor, string, error) {
	if lambda <= 0 {
		lambda = sx.cfg.Budget
	}
	return sx.cursor(q, sx.dim, limit, lambda, f, cursor, 0, buffer{})
}

// SearchCursor pages through the ranked results of a dynamic scan:
// sources are the immutable shards plus the delta buffer. Tokens are
// invalidated by any write. See Searcher.
func (d *DynamicIndex) SearchCursor(q []float32, limit, lambda int, f *Filter, cursor string) ([]Neighbor, string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if lambda <= 0 {
		lambda = d.cfg.Budget
	}
	return d.main.cursor(q, d.store.Dim(), limit, lambda, f, cursor, d.writes, d.bufferLocked())
}

// cursor is the one SearchCursor body: it pages through the merged
// ranked stream of the set's shards — each at its share of λ — and of
// the buffer, when there is one. gen is the write generation tokens are
// checked against (0 on immutable facades).
func (ss *shardSet) cursor(q []float32, dim, limit, lambda int, f *Filter, cursor string, gen uint64, buf buffer) ([]Neighbor, string, error) {
	if err := validateQuery(q, dim, limit, lambda); err != nil {
		return nil, "", err
	}
	if err := validateFilter(f); err != nil {
		return nil, "", err
	}
	start := time.Now()
	nsrc := len(ss.shards)
	if buf.store != nil {
		nsrc++
	}
	t, err := cursorResume(cursor, q, lambda, f, gen, nsrc)
	if err != nil {
		return nil, "", err
	}
	if cursor != "" {
		lambda = t.lambda
		defer func() { obs.ObserveDur(obs.StageCursorResume, time.Since(start)) }()
	}
	lists := make([][]pqueue.Neighbor, nsrc)
	requested := make([]int, nsrc)
	for i := range requested {
		requested[i] = t.offs[i] + limit
	}
	for i, shard := range ss.shards {
		off := ss.offsets[i]
		kFetch, lamEff := cursorFetch(requested[i], ss.shardBudget(i, lambda))
		lists[i], _, _ = shard.searchFilterOffsetIntoStats(q, kFetch, lamEff, off, f, ss.acceptFunc(f, off), nil)
	}
	if buf.store != nil {
		// The buffer is one exact-scan source, always fully enumerated,
		// so "requested" never truncates it.
		var best pqueue.KBest
		best.Reset(requested[nsrc-1])
		lists[nsrc-1], _ = ss.scanBuffer(buf, q, f, &best, nil, nil, -1)
	}
	page := make([]Neighbor, 0, limit)
	exhausted := mergeCursorPage(lists, requested, &t, limit, func(nb pqueue.Neighbor) {
		page = append(page, Neighbor{ID: ss.ids.Ext(nb.ID), Dist: nb.Dist})
	})
	next := ""
	if !exhausted {
		next = encodeCursor(t)
	}
	return page, next, nil
}
