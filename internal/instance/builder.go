package instance

import (
	"fmt"

	"muse/internal/nr"
)

// Row is a convenience map of field label to constant string used by
// the builder helpers. Values are wrapped as Const.
type Row map[string]string

// InsertRow inserts a row of string constants into the top-level set
// named by path (dotted). Unknown labels are rejected.
func (in *Instance) InsertRow(path string, row Row) error {
	st := in.Cat.ByPath(nr.ParsePath(path))
	if st == nil {
		return fmt.Errorf("instance: schema %s has no set %q", in.Schema.Name, path)
	}
	if st.Parent != nil {
		return fmt.Errorf("instance: set %q is nested; insert with an explicit SetID", path)
	}
	t := in.ScratchTuple(st)
	for label, s := range row {
		if !st.HasAtom(label) {
			return fmt.Errorf("instance: set %q has no atom %q", path, label)
		}
		t.Put(label, in.InternConst(s))
	}
	in.InsertUnique(in.Top(st), t)
	return nil
}

// MustInsertVals inserts a row giving values positionally in the set
// type's atom order.
func (in *Instance) MustInsertVals(path string, vals ...string) {
	st := in.Cat.ByPath(nr.ParsePath(path))
	if st == nil {
		panic(fmt.Sprintf("instance: schema %s has no set %q", in.Schema.Name, path))
	}
	if len(vals) != len(st.Atoms) {
		panic(fmt.Sprintf("instance: set %q has %d atoms, got %d values", path, len(st.Atoms), len(vals)))
	}
	if st.Parent != nil {
		panic(fmt.Sprintf("instance: set %q is nested; insert with an explicit SetID", path))
	}
	t := in.ScratchTuple(st)
	for i := range st.Atoms {
		t.PutSlot(i, in.InternConst(vals[i]))
	}
	in.InsertUnique(in.Top(st), t)
}

// ScratchTuple returns the instance's reusable scratch tuple for st,
// cleared. Fill it and hand it to InsertUnique, which copies it on a
// dedup miss; the scratch itself never enters the instance.
// Builder-side only: one scratch exists per set type, so not safe for
// concurrent use, and a second ScratchTuple(st) call invalidates the
// first's contents.
func (in *Instance) ScratchTuple(st *nr.SetType) *Tuple {
	if in.scratch == nil {
		in.scratch = make(map[*nr.SetType]*Tuple)
	}
	t := in.scratch[st]
	if t == nil {
		t = NewTuple(st)
		in.scratch[st] = t
		return t
	}
	return t.Clear()
}
