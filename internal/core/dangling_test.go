package core

import (
	"context"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/scenarios"
)

// TestDanglingSemiJoin: the dangling example of m2's employees variant
// is the first employee, in firing order, that no full assignment of m2
// extends: Brown, who manages no project, as a brute-force semi-join
// finds too. A retrieval under a cancelled context proves nothing, so
// it shows no real dangling example.
func TestDanglingSemiJoin(t *testing.T) {
	f := scenarios.NewFigure1(false)
	w := NewDisambiguationWizard(f.SrcDeps, f.Source)
	variants, err := JoinVariants(f.M2, f.SrcDeps)
	if err != nil {
		t.Fatal(err)
	}
	var v JoinVariant
	for _, cand := range variants {
		if strings.Join(cand.Keep, ",") == "e" {
			v = cand
		}
	}
	if v.Mapping == nil {
		t.Fatal("no employees variant")
	}
	full := bruteRows(f.M2, f.Source)
	e := compileTableau(f.M2, nil, 1).genIndex("e")
	atoms := f.Src.ByPath([]string{"Employees"}).Atoms
	same := func(a, b *instance.Tuple) bool {
		for _, x := range atoms {
			if !instance.SameValue(a.Get(x), b.Get(x)) {
				return false
			}
		}
		return true
	}
	var want *instance.Tuple
	for _, r := range bruteRows(v.Mapping, f.Source) {
		extended := false
		for _, fr := range full {
			extended = extended || same(fr[e], r[0])
		}
		if !extended {
			want = r[0]
			break
		}
	}
	if want == nil || want.Get("ename").String() != "Brown" {
		t.Fatalf("the reference's first dangling employee is %v, want Brown", want)
	}
	ie, real := w.danglingExample(f.M2, v)
	emps := ie.Top(f.Src.ByPath([]string{"Employees"})).View()
	if !real || len(emps) != 1 || emps[0].Key() != want.Key() {
		t.Fatalf("dangling example (real %v) holds %v, want %v", real, emps, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.Ctx = ctx
	if _, real := w.danglingExample(f.M2, v); real {
		t.Error("a cancelled retrieval showed a real dangling example")
	}
}
