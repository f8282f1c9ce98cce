package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lccs"
)

func mustCreate(t *testing.T, e *Engine, name string, spec Spec) *Collection {
	t.Helper()
	c, err := e.Create(name, spec)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	return c
}

// TestRootedLifecycle walks the full registry lifecycle on disk:
// create → write → reopen lazily in a second engine → drop.
func TestRootedLifecycle(t *testing.T) {
	root := t.TempDir()
	defaults := Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}
	e, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}

	a := mustCreate(t, e, "tenant-a", Spec{})
	b := mustCreate(t, e, "tenant-b", Spec{Metric: "angular", M: 16})
	if a.Spec().Metric != "euclidean" || b.Spec().Metric != "angular" {
		t.Fatalf("specs: a=%q b=%q", a.Spec().Metric, b.Spec().Metric)
	}
	if b.Spec().Seed != 1 {
		t.Fatalf("defaults not merged: seed=%d", b.Spec().Seed)
	}
	if _, err := e.Create("tenant-a", Spec{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	for _, bad := range []string{"", "a/b", "..", "-lead", "x y", "."} {
		if _, err := e.Create(bad, Spec{}); !errors.Is(err, ErrBadName) {
			t.Fatalf("Create(%q): %v, want ErrBadName", bad, err)
		}
	}

	// Write through the durable path; both collections are independent.
	for i := 0; i < 10; i++ {
		if _, err := a.Durable().AddWithAttrs([]float32{float32(i), 1}, lccs.Attrs{"i": lccs.IntAttr(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Durable().Add([]float32{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if a.Backend().Len() != 10 || b.Backend().Len() != 1 {
		t.Fatalf("lens: a=%d b=%d", a.Backend().Len(), b.Backend().Len())
	}

	got := e.List()
	if len(got) != 2 || got[0] != "tenant-a" || got[1] != "tenant-b" {
		t.Fatalf("List = %v", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get("tenant-a"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v", err)
	}

	// A fresh engine sees both collections on disk and opens lazily.
	e2, err := New(root, defaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.List(); len(got) != 2 {
		t.Fatalf("restart List = %v", got)
	}
	a2, err := e2.Get("tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	if a2.Backend().Len() != 10 {
		t.Fatalf("recovered len = %d, want 10", a2.Backend().Len())
	}
	if attrs := a2.Dynamic().Attrs(3); !attrs.Equal(lccs.Attrs{"i": lccs.IntAttr(3)}) {
		t.Fatalf("recovered attrs = %v", attrs)
	}
	if _, err := e2.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}

	// Drop removes the directory; the sibling is untouched.
	if err := e2.Drop("tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "collections", "tenant-a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dropped dir still exists: %v", err)
	}
	if got := e2.List(); len(got) != 1 || got[0] != "tenant-b" {
		t.Fatalf("post-drop List = %v", got)
	}
	b2, err := e2.Get("tenant-b")
	if err != nil || b2.Backend().Len() != 1 {
		t.Fatalf("sibling after drop: %v len=%d", err, b2.Backend().Len())
	}
	// Dropping a never-opened on-disk collection also works.
	if err := e2.Drop("tenant-b"); err != nil {
		t.Fatal(err)
	}
	if err := e2.Drop("tenant-b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop: %v", err)
	}
}

// TestRootlessEngine covers memory-only collections and adoption.
func TestRootlessEngine(t *testing.T) {
	e, err := New("", Spec{Metric: "euclidean", M: 8, Seed: 1, BucketWidth: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	c := mustCreate(t, e, "mem", Spec{})
	if c.Durable() != nil || c.Dynamic() == nil {
		t.Fatal("memory collection should be dynamic, not durable")
	}
	if _, err := c.Dynamic().Add([]float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	if c.Backend().Len() != 1 {
		t.Fatalf("len = %d", c.Backend().Len())
	}
	if err := e.Drop("mem"); err != nil {
		t.Fatal(err)
	}

	// Adopt a pre-built read-only backend as the default collection.
	sx, err := lccs.NewShardedIndex([][]float32{{1, 2}, {3, 4}},
		lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 2, BucketWidth: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Adopt("default", sx)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopted() || d.Dynamic() != nil || d.Durable() != nil {
		t.Fatalf("adopted state: %+v", d)
	}
	if err := e.Drop("default"); !errors.Is(err, ErrAdopted) {
		t.Fatalf("dropping adopted: %v", err)
	}
	if _, err := e.Get("default"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("other", Spec{Metric: "bogus"}); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("bad metric: %v", err)
	}
}

// TestAdoptDerivesHandles: an adopted backend's Durable and Dynamic
// handles follow from its concrete type, so an adopted writable index
// never turns read-only.
func TestAdoptDerivesHandles(t *testing.T) {
	e, err := New("", Spec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	data := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	cfg := lccs.Config{Metric: lccs.Euclidean, M: 8, Seed: 2, BucketWidth: 4}
	ix, err := lccs.NewIndex(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := lccs.NewShardedIndex(data, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := lccs.NewDynamicIndex(data, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := lccs.OpenDurable(t.TempDir(), lccs.DurableConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for _, tc := range []struct {
		name    string
		backend lccs.Searcher
		dur     *lccs.DurableIndex
		dyn     *lccs.DynamicIndex
	}{
		{"index", ix, nil, nil},
		{"sharded", sx, nil, nil},
		{"dynamic", dyn, nil, dyn},
		{"durable", dur, dur, dur.DynamicIndex},
	} {
		c, err := e.Adopt(tc.name, tc.backend)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c.Durable() != tc.dur || c.Dynamic() != tc.dyn {
			t.Errorf("%s: Durable() = %p, Dynamic() = %p; want %p, %p", tc.name, c.Durable(), c.Dynamic(), tc.dur, tc.dyn)
		}
	}
}
