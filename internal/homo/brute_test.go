package homo

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
)

// TestAgreesWithBruteForce checks Homomorphic and Isomorphic against an
// exhaustive reference on random one-level nested instance pairs drawn
// from small pools of constants, nulls and SetIDs. Half the pairs
// compare an instance with a copy whose nulls and SetIDs are renamed
// one-to-one, sometimes with one value then changed, so the injective
// search runs on pairs that are, or are nearly, isomorphic.
func TestAgreesWithBruteForce(t *testing.T) {
	cat := orgCat()
	r := rand.New(rand.NewSource(1))
	const pairs = 3000
	homs, isos := 0, 0
	for i := 0; i < pairs; i++ {
		a := randomOrgs(r, cat, "N", "SK")
		b := randomOrgs(r, cat, "N", "SK")
		if i%2 == 1 {
			b = renamed(r, cat, a)
		}
		for _, c := range []struct {
			name      string
			got, want bool
		}{
			{"Homomorphic(a, b)", Homomorphic(a, b), bruteHomomorphic(a, b, false)},
			{"Homomorphic(b, a)", Homomorphic(b, a), bruteHomomorphic(b, a, false)},
			{"Isomorphic(a, b)", Isomorphic(a, b), bruteHomomorphic(a, b, true) && bruteHomomorphic(b, a, true)},
		} {
			if c.got != c.want {
				t.Fatalf("pair %d: %s = %v, exhaustive search says %v\na:\n%s\nb:\n%s", i, c.name, c.got, c.want, a, b)
			}
			if c.want {
				switch c.name {
				case "Homomorphic(a, b)":
					homs++
				case "Isomorphic(a, b)":
					isos++
				}
			}
		}
	}
	t.Logf("%d pairs: %d homomorphic a → b, %d isomorphic", pairs, homs, isos)
	if homs == 0 || isos == 0 || homs == pairs {
		t.Fatalf("degenerate sample: %d homomorphic, %d isomorphic of %d", homs, isos, pairs)
	}
}

// randomOrgs builds up to three Orgs tuples, each naming one of three
// SetIDs fn(k) whose Projects occurrence holds up to three tuples.
// Atoms draw from two constants and three nulls nullFn(k).
func randomOrgs(r *rand.Rand, cat *nr.Catalog, nullFn, setFn string) *instance.Instance {
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	atom := func() instance.Value {
		if r.Intn(2) == 0 {
			return instance.C(fmt.Sprint("c", r.Intn(2)))
		}
		return instance.NewNull(nullFn, instance.CI(r.Intn(3)))
	}
	in := instance.New(cat)
	for i := r.Intn(3) + 1; i > 0; i-- {
		ref := instance.NewSetRef(setFn, instance.CI(r.Intn(3)))
		in.InsertTop(orgs, instance.NewTuple(orgs).Put("oname", atom()).Put("Projects", ref))
		occ := in.EnsureSet(projs, ref)
		for j := r.Intn(4); j > 0 && occ.Len() < 3; j-- {
			occ.Insert(instance.NewTuple(projs).Put("pname", atom()))
		}
	}
	return in
}

// renamed copies a with every null and SetID renamed one-to-one; in
// half the copies one tuple's first atom is then redrawn.
func renamed(r *rand.Rand, cat *nr.Catalog, a *instance.Instance) *instance.Instance {
	nulls, sets := r.Perm(3), r.Perm(3)
	rename := func(v instance.Value) instance.Value {
		switch x := v.(type) {
		case *instance.Null:
			return instance.NewNull("M", instance.CI(nulls[argOf(x)]))
		case *instance.SetRef:
			if len(x.Args) == 0 {
				return x
			}
			return instance.NewSetRef("SR", instance.CI(sets[argOf(x)]))
		}
		return v
	}
	redraw := -1
	if r.Intn(2) == 0 {
		redraw = r.Intn(a.TupleCount())
	}
	b := instance.New(cat)
	n := 0
	for _, s := range a.AllSets() {
		for _, t := range s.View() {
			c := instance.NewTuple(t.Set)
			for k := 0; k < t.NumSlots(); k++ {
				c.PutSlot(k, rename(t.ValAt(k)))
			}
			if n == redraw {
				c.PutSlot(0, instance.C(fmt.Sprint("c", r.Intn(2))))
			}
			n++
			b.Insert(t.Set, rename(s.ID).(*instance.SetRef), c)
		}
	}
	return b
}

// argOf returns the pool index k of a term fn(k).
func argOf(v instance.Value) int {
	var args []instance.Value
	switch x := v.(type) {
	case *instance.Null:
		args = x.Args
	case *instance.SetRef:
		args = x.Args
	}
	k, _ := strconv.Atoi(args[0].String())
	return k
}

// bruteHomomorphic decides by exhaustion whether a homomorphism a → b
// exists, injective on nulls and SetIDs when injective is set. It tries
// every binding of a's nulls to b's non-SetID values (to b's nulls
// alone when injective) and of a's SetIDs to b's SetIDs, and accepts one
// under which the image of every tuple of every occurrence reachable
// from a's top-level sets is in b's matching occurrence.
func bruteHomomorphic(a, b *instance.Instance, injective bool) bool {
	var terms []instance.Value // a's nulls and SetIDs, each once
	var reach []*instance.SetVal
	for _, st := range a.Cat.TopLevel() {
		reach = append(reach, a.Top(st))
	}
	for i := 0; i < len(reach); i++ {
		for _, t := range reach[i].View() {
			for k := 0; k < t.NumSlots(); k++ {
				v := t.ValAt(k)
				if instance.IsConst(v) || v == nil || indexOf(terms, v) >= 0 {
					continue
				}
				terms = append(terms, v)
				if ref, ok := v.(*instance.SetRef); ok {
					if occ := a.Set(ref); occ != nil {
						reach = append(reach, occ)
					}
				}
			}
		}
	}
	var bAtoms, bNulls, bSets []instance.Value
	for _, s := range b.AllSets() {
		for _, t := range s.View() {
			for k := 0; k < t.NumSlots(); k++ {
				v := t.ValAt(k)
				if v == nil || indexOf(bAtoms, v) >= 0 || indexOf(bSets, v) >= 0 {
					continue
				}
				switch {
				case instance.IsSetRef(v):
					bSets = append(bSets, v)
				case instance.IsNull(v):
					bNulls = append(bNulls, v)
					bAtoms = append(bAtoms, v)
				default:
					bAtoms = append(bAtoms, v)
				}
			}
		}
	}
	image := make([]instance.Value, len(terms))
	img := func(v instance.Value) instance.Value {
		if i := indexOf(terms, v); i >= 0 {
			return image[i]
		}
		return v
	}
	preserved := func() bool {
		for _, occ := range reach {
			dst := b.Top(occ.Type)
			if occ.Type.Parent != nil {
				dst = b.Set(img(occ.ID).(*instance.SetRef))
			}
			for _, t := range occ.View() {
				c := instance.NewTuple(t.Set)
				for k := 0; k < t.NumSlots(); k++ {
					if v := t.ValAt(k); v != nil {
						c.PutSlot(k, img(v))
					}
				}
				if dst == nil || !dst.Contains(c) {
					return false
				}
			}
		}
		return true
	}
	var bind func(i int) bool
	bind = func(i int) bool {
		if i == len(terms) {
			return preserved()
		}
		dom := bSets
		if instance.IsNull(terms[i]) {
			dom = bAtoms
			if injective {
				dom = bNulls
			}
		}
		for _, v := range dom {
			if injective && indexOf(image[:i], v) >= 0 {
				continue
			}
			image[i] = v
			if bind(i + 1) {
				return true
			}
		}
		return false
	}
	return bind(0)
}

func indexOf(vs []instance.Value, v instance.Value) int {
	for i, w := range vs {
		if instance.SameValue(v, w) {
			return i
		}
	}
	return -1
}
