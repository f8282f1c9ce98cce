package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// AttrKind discriminates the typed metadata values a vector may carry.
type AttrKind uint8

const (
	// AttrInt is a signed 64-bit integer attribute.
	AttrInt AttrKind = 1
	// AttrString is an opaque string attribute.
	AttrString AttrKind = 2
)

// AttrValue is one typed metadata value.
type AttrValue struct {
	Kind AttrKind
	Int  int64
	Str  string
}

// IntValue wraps an int64 as an attribute value.
func IntValue(v int64) AttrValue { return AttrValue{Kind: AttrInt, Int: v} }

// StrValue wraps a string as an attribute value.
func StrValue(s string) AttrValue { return AttrValue{Kind: AttrString, Str: s} }

// Equal reports whether two values have the same kind and payload.
func (v AttrValue) Equal(o AttrValue) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case AttrInt:
		return v.Int == o.Int
	case AttrString:
		return v.Str == o.Str
	}
	return false
}

// Attrs is the metadata attached to one vector: a small key→value map.
// A nil Attrs means "no metadata".
type Attrs map[string]AttrValue

// Equal reports deep equality of two attribute sets (nil == empty).
func (a Attrs) Equal(b Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		o, ok := b[k]
		if !ok || !v.Equal(o) {
			return false
		}
	}
	return true
}

// MetaStore holds per-slot attribute sets aligned with a vec.Store: slot
// i of the vector store owns row i here. Rows without metadata are nil,
// so a store whose vectors carry no attributes costs one slice header.
type MetaStore struct {
	rows []Attrs
}

// NewMetaStore returns an empty store with room hinted for n rows.
func NewMetaStore(n int) *MetaStore {
	return &MetaStore{rows: make([]Attrs, 0, n)}
}

// MetaFromRows adopts the given rows (not copied).
func MetaFromRows(rows []Attrs) *MetaStore { return &MetaStore{rows: rows} }

// Len returns the number of rows.
func (ms *MetaStore) Len() int {
	if ms == nil {
		return 0
	}
	return len(ms.rows)
}

// Row returns the attributes of slot i, or nil when the slot has none or
// lies beyond the rows appended so far (slots are created lazily: a
// vector inserted without metadata needs no row here).
func (ms *MetaStore) Row(i int) Attrs {
	if ms == nil || i < 0 || i >= len(ms.rows) {
		return nil
	}
	return ms.rows[i]
}

// Append adds one row (which may be nil) and returns its slot.
func (ms *MetaStore) Append(a Attrs) int {
	ms.rows = append(ms.rows, a)
	return len(ms.rows) - 1
}

// PadTo extends the store with nil rows until it has n rows.
func (ms *MetaStore) PadTo(n int) {
	for len(ms.rows) < n {
		ms.rows = append(ms.rows, nil)
	}
}

// Empty reports whether no row carries any attribute.
func (ms *MetaStore) Empty() bool {
	if ms == nil {
		return true
	}
	for _, r := range ms.rows {
		if len(r) > 0 {
			return false
		}
	}
	return true
}

// Slice returns a capped view over rows [0, n): appends to the view
// never alias the parent, mirroring vec.Store.Slice's stability contract.
func (ms *MetaStore) Slice(n int) *MetaStore {
	if ms == nil {
		return nil
	}
	if n > len(ms.rows) {
		n = len(ms.rows)
	}
	return &MetaStore{rows: ms.rows[:n:n]}
}

// Range returns a read-only view of rows [lo, hi) renumbered from 0 —
// the attribute rows of one index shard. Rows past Len() read as nil;
// the view is capped, so later appends to ms never show through it.
func (ms *MetaStore) Range(lo, hi int) *MetaStore {
	if ms == nil {
		return nil
	}
	if hi > len(ms.rows) {
		hi = len(ms.rows)
	}
	if lo > hi {
		lo = hi
	}
	return &MetaStore{rows: ms.rows[lo:hi:hi]}
}

// CompactCopy mirrors vec.Store.CompactCopy over attribute rows: rows
// [0, keepPrefix) verbatim, then every row in [keepPrefix, n) for which
// dead reports false. n may exceed Len(); missing rows compact as nil.
func (ms *MetaStore) CompactCopy(n, keepPrefix int, dead func(slot int) bool) *MetaStore {
	out := &MetaStore{rows: make([]Attrs, 0, n)}
	for i := 0; i < keepPrefix && i < n; i++ {
		out.rows = append(out.rows, ms.Row(i))
	}
	for i := keepPrefix; i < n; i++ {
		if !dead(i) {
			out.rows = append(out.rows, ms.Row(i))
		}
	}
	return out
}

// sortedKeys returns a's keys in ascending order (the canonical
// encoding order).
func sortedKeys(a Attrs) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maxAttrBytes bounds one encoded attribute row; decode rejects
// anything claiming more (corrupt input must not drive allocations).
const maxAttrBytes = 1 << 20

// AppendAttrs appends the canonical binary encoding of one attribute
// row to dst: uvarint key count, then per key (sorted ascending):
// uvarint key length, key bytes, kind byte, then int64 (little-endian)
// or uvarint string length + bytes. The encoding is deterministic, so
// containers holding identical attrs are byte-identical.
func AppendAttrs(dst []byte, a Attrs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	for _, k := range sortedKeys(a) {
		v := a[k]
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case AttrInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int))
		case AttrString:
			dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			panic(fmt.Sprintf("vec: unknown attr kind %d", v.Kind))
		}
	}
	return dst
}

// DecodeAttrs decodes one AppendAttrs row from the front of buf,
// returning the attrs (nil when empty) and the number of bytes
// consumed.
func DecodeAttrs(buf []byte) (Attrs, int, error) {
	off := 0
	nKeys, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("vec: attrs: bad key count")
	}
	off += n
	if nKeys == 0 {
		return nil, off, nil
	}
	if nKeys > maxAttrBytes {
		return nil, 0, fmt.Errorf("vec: attrs: key count %d too large", nKeys)
	}
	a := make(Attrs, nKeys)
	for i := uint64(0); i < nKeys; i++ {
		kLen, n := binary.Uvarint(buf[off:])
		if n <= 0 || kLen > maxAttrBytes || int(kLen) > len(buf)-off-n {
			return nil, 0, fmt.Errorf("vec: attrs: bad key length")
		}
		off += n
		key := string(buf[off : off+int(kLen)])
		off += int(kLen)
		if off >= len(buf) {
			return nil, 0, fmt.Errorf("vec: attrs: truncated value")
		}
		kind := AttrKind(buf[off])
		off++
		switch kind {
		case AttrInt:
			if len(buf)-off < 8 {
				return nil, 0, fmt.Errorf("vec: attrs: truncated int value")
			}
			a[key] = IntValue(int64(binary.LittleEndian.Uint64(buf[off:])))
			off += 8
		case AttrString:
			sLen, n := binary.Uvarint(buf[off:])
			if n <= 0 || sLen > maxAttrBytes || int(sLen) > len(buf)-off-n {
				return nil, 0, fmt.Errorf("vec: attrs: bad string length")
			}
			off += n
			a[key] = StrValue(string(buf[off : off+int(sLen)]))
			off += int(sLen)
		default:
			return nil, 0, fmt.Errorf("vec: attrs: unknown kind %d", kind)
		}
	}
	return a, off, nil
}

// FilterOp is the comparison an attribute filter term applies.
type FilterOp uint8

const (
	// FilterEq matches rows whose attribute equals the term's value.
	FilterEq FilterOp = 1
	// FilterRange matches rows whose int64 attribute lies in the
	// inclusive [Min, Max] interval (either bound optional).
	FilterRange FilterOp = 2
)

// FilterTerm is one predicate over one attribute key.
type FilterTerm struct {
	Key            string
	Op             FilterOp
	Value          AttrValue // FilterEq
	Min            int64     // FilterRange, valid when HasMin
	Max            int64     // FilterRange, valid when HasMax
	HasMin, HasMax bool
}

// Filter is a conjunction (AND) of terms over vector attributes. The
// zero value and nil match every row.
type Filter struct {
	Terms []FilterTerm
}

// Validate reports whether the filter is well-formed.
func (f *Filter) Validate() error {
	if f == nil {
		return nil
	}
	for i := range f.Terms {
		t := &f.Terms[i]
		if t.Key == "" {
			return fmt.Errorf("vec: filter term %d: empty key", i)
		}
		switch t.Op {
		case FilterEq:
			if t.Value.Kind != AttrInt && t.Value.Kind != AttrString {
				return fmt.Errorf("vec: filter term %d: bad value kind %d", i, t.Value.Kind)
			}
		case FilterRange:
			if !t.HasMin && !t.HasMax {
				return fmt.Errorf("vec: filter term %d: range needs min or max", i)
			}
			if t.HasMin && t.HasMax && t.Min > t.Max {
				return fmt.Errorf("vec: filter term %d: min %d > max %d", i, t.Min, t.Max)
			}
		default:
			return fmt.Errorf("vec: filter term %d: unknown op %d", i, t.Op)
		}
	}
	return nil
}

// Matches reports whether the attribute row satisfies every term. A row
// missing a term's key never matches that term.
func (f *Filter) Matches(a Attrs) bool {
	if f == nil {
		return true
	}
	for i := range f.Terms {
		t := &f.Terms[i]
		v, ok := a[t.Key]
		if !ok {
			return false
		}
		switch t.Op {
		case FilterEq:
			if !v.Equal(t.Value) {
				return false
			}
		case FilterRange:
			if v.Kind != AttrInt {
				return false
			}
			if t.HasMin && v.Int < t.Min {
				return false
			}
			if t.HasMax && v.Int > t.Max {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Empty reports whether the filter constrains nothing.
func (f *Filter) Empty() bool { return f == nil || len(f.Terms) == 0 }

// AppendKey appends a canonical binary form of the filter to dst —
// stable across equal filters — for cache keys and cursor guards.
func (f *Filter) AppendKey(dst []byte) []byte {
	if f.Empty() {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Terms)))
	for i := range f.Terms {
		t := &f.Terms[i]
		dst = binary.AppendUvarint(dst, uint64(len(t.Key)))
		dst = append(dst, t.Key...)
		dst = append(dst, byte(t.Op))
		switch t.Op {
		case FilterEq:
			dst = append(dst, byte(t.Value.Kind))
			if t.Value.Kind == AttrInt {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Value.Int))
			} else {
				dst = binary.AppendUvarint(dst, uint64(len(t.Value.Str)))
				dst = append(dst, t.Value.Str...)
			}
		case FilterRange:
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			var flags byte
			if t.HasMin {
				lo, flags = t.Min, flags|1
			}
			if t.HasMax {
				hi, flags = t.Max, flags|2
			}
			dst = append(dst, flags)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(lo))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(hi))
		}
	}
	return dst
}
