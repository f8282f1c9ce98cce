package lccs

import (
	"errors"
	"fmt"

	"lccs/internal/vec"
)

// Attrs is the optional typed metadata attached to one vector: a small
// key → value map with int64 and string values. A nil Attrs means "no
// metadata"; vectors without metadata cost nothing.
type Attrs = vec.Attrs

// AttrValue is one typed metadata value (int64 or string).
type AttrValue = vec.AttrValue

// IntAttr wraps an int64 as an attribute value.
func IntAttr(v int64) AttrValue { return vec.IntValue(v) }

// StrAttr wraps a string as an attribute value.
func StrAttr(s string) AttrValue { return vec.StrValue(s) }

// Filter is a conjunction (AND) of predicates over vector attributes:
// equality on int64 or string values, and inclusive numeric ranges. A
// nil or empty filter matches every vector.
//
// Each immutable index shard answers a filtered query by one of two
// plans, chosen per shard by a count-based rule. Every shard keeps
// in-memory postings: for each attribute key and equality value, the
// sorted rows carrying it. Let P be the shortest posting list among the
// filter's equality terms, n the shard's row count and λ+k−1 the
// candidates the shard must verify. When |P|² ≤ (λ+k−1)·n the shard
// computes exact distances for exactly the rows of P that are live and
// match every term: the shard's answer is exact at any λ. Otherwise —
// and always for range-only filters, which postings do not index — the
// CSA candidate stream is drained in LCCS order, non-matching rows are
// discarded before any distance work and do not consume the budget,
// and the drain continues until λ+k−1 matching candidates are verified;
// with an exhaustive budget that result is exact too. The unindexed
// buffer of a DynamicIndex is always scanned exactly.
type Filter = vec.Filter

// FilterTerm is one predicate of a Filter.
type FilterTerm = vec.FilterTerm

// FilterOp is the comparison a filter term applies.
type FilterOp = vec.FilterOp

// Filter term operators.
const (
	// FilterEq matches rows whose attribute equals the term's value.
	FilterEq = vec.FilterEq
	// FilterRange matches rows whose int64 attribute lies in the
	// inclusive [Min, Max] interval.
	FilterRange = vec.FilterRange
)

// EqInt builds an int64 equality term.
func EqInt(key string, v int64) FilterTerm {
	return FilterTerm{Key: key, Op: FilterEq, Value: vec.IntValue(v)}
}

// EqStr builds a string equality term.
func EqStr(key string, s string) FilterTerm {
	return FilterTerm{Key: key, Op: FilterEq, Value: vec.StrValue(s)}
}

// Range builds an inclusive int64 range term; nil bounds are open.
func Range(key string, min, max *int64) FilterTerm {
	t := FilterTerm{Key: key, Op: FilterRange}
	if min != nil {
		t.Min, t.HasMin = *min, true
	}
	if max != nil {
		t.Max, t.HasMax = *max, true
	}
	return t
}

// ErrInvalidFilter is returned (wrapped) when a filter is malformed.
var ErrInvalidFilter = errors.New("lccs: invalid filter")

// ErrAttrsMismatch is returned when a constructor receives an attribute
// slice whose length does not match the data.
var ErrAttrsMismatch = errors.New("lccs: attrs length does not match vectors")

// validateFilter translates filter validation failures into the
// package's typed error.
func validateFilter(f *Filter) error {
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidFilter, err)
	}
	return nil
}

// Attrs returns the metadata of the vector with the given id, or nil.
func (ix *Index) Attrs(id int) Attrs { return ix.attrs.Row(id) }

// NewIndexWithAttrs is NewIndex with per-vector metadata: attrs[i]
// belongs to data[i]. attrs may be shorter than data (missing rows have
// no metadata) but not longer.
func NewIndexWithAttrs(data [][]float32, attrs []Attrs, cfg Config) (*Index, error) {
	if len(attrs) > len(data) {
		return nil, ErrAttrsMismatch
	}
	ix, err := NewIndex(data, cfg)
	if err != nil {
		return nil, err
	}
	if len(attrs) > 0 {
		ix.adoptAttrs(vec.MetaFromRows(append([]Attrs(nil), attrs...)))
	}
	return ix, nil
}

// adoptAttrs installs the index's attribute rows (slot-aligned with its
// store) and builds the equality postings the filter planner reads. It
// runs once, before the index is shared with any reader.
func (ix *Index) adoptAttrs(attrs *vec.MetaStore) {
	ix.attrs = attrs
	ix.post = vec.BuildPostings(attrs)
}

// acceptFunc builds the candidate predicate of a filtered query over
// the index's own rows; nil when f is empty.
func (ix *Index) acceptFunc(f *Filter) func(int) bool {
	if f.Empty() {
		return nil
	}
	attrs := ix.attrs
	return func(id int) bool { return f.Matches(attrs.Row(id)) }
}
