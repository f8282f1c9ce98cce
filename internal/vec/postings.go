package vec

// Postings is the equality index over the rows of one MetaStore: for
// every (attribute key, value) pair, the ascending row ids carrying it.
// It is built once over an immutable row range and never mutated, so
// concurrent readers need no synchronization. Range terms are not
// indexed.
type Postings struct {
	lists map[postingKey][]int32
}

// postingKey names one posting list. AttrValue carries its kind, so an
// int 5 and a string "5" never share a list.
type postingKey struct {
	key string
	val AttrValue
}

// BuildPostings indexes every row of ms. The result is never nil, even
// for a nil or attribute-free store: a built index with no lists means
// "no row matches any equality term", which callers must be able to
// tell apart from "no index was built".
func BuildPostings(ms *MetaStore) *Postings {
	p := &Postings{}
	if ms == nil {
		return p
	}
	// Two passes: count, then fill one exactly-sized arena, so the lists
	// carry no append slack.
	counts := make(map[postingKey]int)
	total := 0
	for _, row := range ms.rows {
		for k, v := range row {
			counts[postingKey{k, v}]++
			total++
		}
	}
	if total == 0 {
		return p
	}
	arena := make([]int32, total)
	p.lists = make(map[postingKey][]int32, len(counts))
	off := 0
	for key, c := range counts {
		p.lists[key] = arena[off : off : off+c]
		off += c
	}
	for i, row := range ms.rows {
		for k, v := range row {
			key := postingKey{k, v}
			p.lists[key] = append(p.lists[key], int32(i))
		}
	}
	return p
}

// Lookup returns the ascending row ids whose attribute key equals v
// (nil when none does). The slice is shared; treat it as read-only.
func (p *Postings) Lookup(key string, v AttrValue) []int32 {
	return p.lists[postingKey{key, v}]
}

// Shortest returns the shortest posting list among f's equality terms
// — a superset of the rows f can match — and ok = false when f has no
// equality term (range-only or empty filters).
func (p *Postings) Shortest(f *Filter) (rows []int32, ok bool) {
	if f == nil {
		return nil, false
	}
	for i := range f.Terms {
		t := &f.Terms[i]
		if t.Op != FilterEq {
			continue
		}
		list := p.Lookup(t.Key, t.Value)
		if !ok || len(list) < len(rows) {
			rows, ok = list, true
		}
	}
	return rows, ok
}
