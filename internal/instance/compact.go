package instance

import (
	"fmt"
	"strings"
)

// StringCompact renders the instance like String, but with Skolemized
// labeled nulls abbreviated to N1, N2, ... and nested-set SetIDs to
// their function symbol plus a counter (SKProjects#1). The full terms
// make instances unreadable in wizard questions; the abbreviation is
// stable within one rendering (equal terms get equal short names).
func (in *Instance) StringCompact() string {
	short := newShortener()
	var b strings.Builder
	for _, st := range in.Cat.TopLevel() {
		s := in.Set(TopID(st))
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", st.Path)
		in.writeSetCompact(&b, s, "  ", short)
	}
	return b.String()
}

type shortener struct {
	names map[string]string
	nulls int
	sets  map[string]int // per SetID function symbol
}

func newShortener() *shortener {
	return &shortener{names: make(map[string]string), sets: make(map[string]int)}
}

func (sh *shortener) value(v Value) string {
	if v == nil {
		return "_"
	}
	switch t := v.(type) {
	case Const:
		return t.S
	case *Null:
		if len(t.Args) == 0 {
			return t.Fn
		}
		if name, ok := sh.names[v.Key()]; ok {
			return name
		}
		sh.nulls++
		name := fmt.Sprintf("N%d", sh.nulls)
		sh.names[v.Key()] = name
		return name
	case *SetRef:
		if len(t.Args) == 0 {
			return t.Fn
		}
		if name, ok := sh.names[v.Key()]; ok {
			return name
		}
		sh.sets[t.Fn]++
		name := fmt.Sprintf("%s#%d", t.Fn, sh.sets[t.Fn])
		sh.names[v.Key()] = name
		return name
	default:
		return v.String()
	}
}

// arena is a per-Instance bump allocator for tuple headers and value
// slot arrays. Instance.NewTuple and the clone-on-insert path carve
// tuples out of block allocations instead of minting one header object
// and one slot slice per tuple, so a scaled scenario build or chase
// costs two allocations per few hundred tuples, not two per tuple.
//
// Blocks grow geometrically: the first holds arenaFirstTuples headers
// (arenaFirstVals slots) and each refill doubles the size up to
// arenaBlockTuples (arenaBlockVals). The two-tuples-per-relation
// examples Muse chases on every question then cost a few hundred bytes
// rather than a full 64 KB value block, while a large instance reaches
// the cap after a handful of refills.
//
// Arena memory lives exactly as long as the owning Instance: tuples
// handed out reference the blocks, and the blocks die with the last
// tuple. Nothing is ever returned to an arena — deduplication happens
// before allocation (InsertUnique copies into the arena only on a
// dedup miss), so no freelist is needed.
type arena struct {
	tuples []Tuple
	vals   []Value
	// nextTuples and nextVals size the next refill (0 = first block).
	nextTuples, nextVals int
}

const (
	arenaFirstTuples = 8
	arenaFirstVals   = 64
	arenaBlockTuples = 256
	arenaBlockVals   = 4096
)

// blockSize returns the size of the block to allocate now, at least
// need, and advances *next by doubling up to limit.
func blockSize(next *int, first, limit, need int) int {
	size := max(*next, first)
	for size < need {
		size *= 2
	}
	*next = min(2*size, limit)
	return size
}

func (a *arena) newTuple() *Tuple {
	if len(a.tuples) == 0 {
		a.tuples = make([]Tuple, blockSize(&a.nextTuples, arenaFirstTuples, arenaBlockTuples, 1))
	}
	t := &a.tuples[0]
	a.tuples = a.tuples[1:]
	return t
}

func (a *arena) newVals(n int) []Value {
	if n == 0 {
		return nil
	}
	if n > len(a.vals) {
		if n > arenaBlockVals/4 {
			// A record this wide would waste most of a full block on
			// every refill; give it its own slice.
			return make([]Value, n)
		}
		// The block remainder (< n slots) is abandoned: bounded waste,
		// and the full capacity is three-index-sliced out below so no
		// tuple can append into a neighbour's slots.
		a.vals = make([]Value, blockSize(&a.nextVals, arenaFirstVals, arenaBlockVals, n))
	}
	v := a.vals[:n:n]
	a.vals = a.vals[n:]
	return v
}

func (in *Instance) writeSetCompact(b *strings.Builder, s *SetVal, indent string, sh *shortener) {
	for _, t := range sortedTuples(s) {
		var parts []string
		for _, a := range t.Set.Atoms {
			parts = append(parts, sh.value(t.Get(a)))
		}
		fmt.Fprintf(b, "%s(%s)\n", indent, strings.Join(parts, ", "))
		for _, f := range t.Set.SetFields {
			ref, ok := t.Get(f).(*SetRef)
			if !ok {
				continue
			}
			fmt.Fprintf(b, "%s%s = %s:\n", indent+"  ", f, sh.value(ref))
			if child := in.Set(ref); child != nil {
				in.writeSetCompact(b, child, indent+"    ", sh)
			}
		}
	}
}
