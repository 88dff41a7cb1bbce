package homo

import (
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
)

// TestIsomorphicNilSlots is the minimized regression for the
// unset-slot crash the crosscheck harness flushed out: chase outputs
// carry explicit nil entries in Tuple.Vals (a target slot fed by an
// unset source slot), and the injective search's pass over consumed
// destination tuples called Key() on the nil value. An unset slot's
// image is unset; the search must treat it like a missing entry.
func TestIsomorphicNilSlots(t *testing.T) {
	cat := nr.MustCatalog(nr.MustSchema("T", nr.Record(
		nr.F("R", nr.SetOf(nr.Record(nr.F("a", nr.StringType()), nr.F("b", nr.StringType())))),
	)))
	st := cat.ByPath(nr.ParsePath("R"))
	build := func(prefix string) *instance.Instance {
		in := instance.New(cat)
		// Two null-keyed tuples so the injective search has a matched
		// prefix to scan when placing the second one; b is explicitly
		// set to nil, as the chase does for unfed target slots.
		in.InsertTop(st, instance.NewTuple(st).Put("a", instance.NewNull(prefix+"1")).Put("b", nil))
		in.InsertTop(st, instance.NewTuple(st).Put("a", instance.NewNull(prefix+"2")).Put("b", nil))
		return in
	}
	if !Isomorphic(build("N"), build("M")) {
		t.Fatal("instances equal up to null renaming reported non-isomorphic")
	}
}
