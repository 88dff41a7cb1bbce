package instance

import "testing"

// TestNilTermArgs is the minimized regression for the unset-slot
// Skolem crash the crosscheck harness flushed out: the chase evaluates
// grouping-term and null arguments from source slots that may be unset
// (nil), and Key/String on the resulting terms dereferenced the nil
// Value. Nil arguments encode as empty — like unset slots in
// Tuple.Key — and render as "_", and must stay distinct from the empty
// constant.
func TestNilTermArgs(t *testing.T) {
	ref := NewSetRef("SK", C("1"), nil)
	refEmpty := NewSetRef("SK", C("1"), C(""))
	if ref.Key() == refEmpty.Key() {
		t.Fatal("SetRef over an unset slot collides with the empty constant")
	}
	if got := ref.String(); got != "SK(1,_)" {
		t.Fatalf("SetRef.String = %q, want SK(1,_)", got)
	}
	if !SameValue(ref, NewSetRef("SK", C("1"), nil)) {
		t.Fatal("structurally equal nil-arg SetRefs are not SameValue")
	}
	// A sole unset argument is not the empty argument list.
	if NewSetRef("SK", nil).Key() == NewSetRef("SK").Key() {
		t.Fatal("SetRef over one unset slot collides with the nullary SetRef")
	}

	n := NewNull("N_m_t.u", nil, C("x"))
	nEmpty := NewNull("N_m_t.u", C(""), C("x"))
	if n.Key() == nEmpty.Key() {
		t.Fatal("Null over an unset slot collides with the empty constant")
	}
	if got := n.String(); got != "N_m_t.u(_,x)" {
		t.Fatalf("Null.String = %q, want N_m_t.u(_,x)", got)
	}
	if !SameValue(n, NewNull("N_m_t.u", nil, C("x"))) {
		t.Fatal("structurally equal nil-arg Nulls are not SameValue")
	}
}
