package vec

import (
	"reflect"
	"testing"
)

func TestPostingsLookupAndShortest(t *testing.T) {
	rows := []Attrs{
		{"color": StrValue("red"), "n": IntValue(5)},
		nil,
		{"color": StrValue("blue"), "n": IntValue(5)},
		{"color": StrValue("red"), "n": StrValue("5")},
		{"color": StrValue("red")},
	}
	p := BuildPostings(MetaFromRows(rows))
	for _, tc := range []struct {
		key  string
		v    AttrValue
		want []int32
	}{
		{"color", StrValue("red"), []int32{0, 3, 4}},
		{"color", StrValue("blue"), []int32{2}},
		{"n", IntValue(5), []int32{0, 2}},
		{"n", StrValue("5"), []int32{3}}, // kinds never share a list
		{"color", StrValue("green"), nil},
		{"missing", IntValue(1), nil},
	} {
		if got := p.Lookup(tc.key, tc.v); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Lookup(%s=%v) = %v, want %v", tc.key, tc.v, got, tc.want)
		}
	}

	f := &Filter{Terms: []FilterTerm{
		{Key: "color", Op: FilterEq, Value: StrValue("red")},
		{Key: "n", Op: FilterRange, Min: 0, HasMin: true},
		{Key: "n", Op: FilterEq, Value: IntValue(5)},
	}}
	if got, ok := p.Shortest(f); !ok || !reflect.DeepEqual(got, []int32{0, 2}) {
		t.Errorf("Shortest = %v, %v; want the n=5 list", got, ok)
	}
	absent := &Filter{Terms: []FilterTerm{{Key: "color", Op: FilterEq, Value: StrValue("green")}}}
	if got, ok := p.Shortest(absent); !ok || len(got) != 0 {
		t.Errorf("Shortest(absent value) = %v, %v; want an empty list", got, ok)
	}
	rangeOnly := &Filter{Terms: []FilterTerm{{Key: "n", Op: FilterRange, Max: 9, HasMax: true}}}
	for _, f := range []*Filter{rangeOnly, {}, nil} {
		if _, ok := p.Shortest(f); ok {
			t.Errorf("Shortest(%v) consulted a posting list; want none", f)
		}
	}
	if BuildPostings(nil) == nil || BuildPostings(MetaFromRows([]Attrs{nil})) == nil {
		t.Error("BuildPostings must return a non-nil index even with no attributes")
	}
}

func TestMetaStoreRange(t *testing.T) {
	ms := MetaFromRows([]Attrs{{"a": IntValue(0)}, {"a": IntValue(1)}, {"a": IntValue(2)}})
	v := ms.Range(1, 5) // past the stored rows: renumbered, capped
	if v.Len() != 2 || v.Row(0)["a"].Int != 1 || v.Row(1)["a"].Int != 2 || v.Row(2) != nil {
		t.Fatalf("Range(1,5) = %d rows: %v %v %v", v.Len(), v.Row(0), v.Row(1), v.Row(2))
	}
	ms.Append(Attrs{"a": IntValue(3)})
	if v.Len() != 2 || v.Row(2) != nil {
		t.Fatal("an append to the parent showed through the view")
	}
	if ms.Range(4, 6).Len() != 0 || (*MetaStore)(nil).Range(0, 3) != nil {
		t.Fatal("empty and nil ranges")
	}
}
