package cache

import (
	"encoding/binary"

	"splitio/internal/causes"
)

// interner names each distinct cause set the cache has seen by a uint32
// handle, so a page's tag is a plain integer and an overwrite's union is a
// table lookup. Handle 0 is the empty set; equal sets share one handle.
// Handles are never freed: a run sees few distinct sets.
type interner struct {
	sets    []causes.Set // by handle
	singles map[causes.PID]uint32
	multis  map[string]uint32 // by the varint-encoded PIDs
	unions  map[[2]uint32]uint32
	key     []byte // scratch for multis lookups

	// One-entry memo of singles: a writer's run of pages costs one map
	// lookup. lastSingle is 0 when unset.
	lastPID    causes.PID
	lastSingle uint32
}

func newInterner() interner {
	return interner{
		sets:    []causes.Set{causes.None},
		singles: make(map[causes.PID]uint32),
		multis:  make(map[string]uint32),
		unions:  make(map[[2]uint32]uint32),
	}
}

// handle returns s's handle, interning s if it is new.
func (in *interner) handle(s causes.Set) uint32 {
	pids := s.PIDs()
	switch len(pids) {
	case 0:
		return 0
	case 1:
		if in.lastSingle != 0 && in.lastPID == pids[0] {
			return in.lastSingle
		}
		h, ok := in.singles[pids[0]]
		if !ok {
			h = in.add(s)
			in.singles[pids[0]] = h
		}
		in.lastPID, in.lastSingle = pids[0], h
		return h
	}
	in.key = in.key[:0]
	for _, p := range pids {
		in.key = binary.AppendVarint(in.key, int64(p))
	}
	h, ok := in.multis[string(in.key)]
	if !ok {
		h = in.add(s)
		in.multis[string(in.key)] = h
	}
	return h
}

func (in *interner) add(s causes.Set) uint32 {
	in.sets = append(in.sets, s)
	return uint32(len(in.sets) - 1)
}

// union returns the handle of the union of the sets a and b name.
func (in *interner) union(a, b uint32) uint32 {
	if a == b || b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	k := [2]uint32{min(a, b), max(a, b)}
	h, ok := in.unions[k]
	if !ok {
		h = in.handle(in.sets[a].Union(in.sets[b]))
		in.unions[k] = h
	}
	return h
}
