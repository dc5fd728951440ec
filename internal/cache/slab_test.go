package cache

import (
	"reflect"
	"testing"
)

// TestCacheSteadyStateZeroAllocs asserts that once the slabs are warm the
// page-cache hot paths allocate nothing: streaming InsertClean over a full
// cache (every insert evicts the LRU page, freeing and reusing slots and
// chunks), Lookup hits, and MarkDirty of a fresh page and of a dirty one.
// A per-page heap object, list element or cause set would show up here.
func TestCacheSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := smallConfig()
	env, c := newTestCache(cfg)
	defer env.Close()
	next := int64(0)
	stream := func() {
		c.InsertClean(1, next)
		next++
	}
	for next < 2*cfg.TotalPages {
		stream()
	}
	a, b := testCtx(10), testCtx(11)
	fresh := int64(0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"InsertClean with eviction", stream},
		{"Lookup", func() { c.Lookup(1, next-cfg.TotalPages/2) }},
		{"MarkDirty of a fresh page", func() {
			c.MarkDirty(a, 2, fresh)
			fresh++
		}},
		{"MarkDirty overwrite", func() {
			c.MarkDirty(a, 2, 0)
			c.MarkDirty(b, 2, 0)
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocated %.2f objects per call, want 0", tc.name, allocs)
		}
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSlabTypesHoldNoPointers keeps the page and chunk slabs out of the
// GC's mark work: a pointer field in either would make every slab scanned.
func TestSlabTypesHoldNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return typ.Kind() > reflect.Complex128
	}
	for _, v := range []any{page{}, chunk{}} {
		if typ := reflect.TypeOf(v); hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}
