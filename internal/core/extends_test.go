package core

import (
	"context"
	"strings"
	"testing"

	"muse/internal/query"
	"muse/internal/scenarios"
)

// TestExtendsUnfinishedSearch: a search that does not finish proves
// nothing, so extends counts the match as extending. Brown manages no
// project, so a finished search finds no full assignment for him; with
// the wizard's context already cancelled, the search stops before it
// starts and must not make Brown a dangling example.
func TestExtendsUnfinishedSearch(t *testing.T) {
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
	matches, err := compileTableau(v.Mapping, f.SrcDeps, 1).realQuery(nil).Eval(f.Source, w.retrieval())
	if err != nil {
		t.Fatal(err)
	}
	var brown *query.Match
	for i := range matches {
		if matches[i].Tuples[0].Get("ename").String() == "Brown" {
			brown = &matches[i]
		}
	}
	if brown == nil {
		t.Fatal("the employees variant does not match Brown")
	}
	full := compileTableau(f.M2, f.SrcDeps, 1)
	fq := full.realQuery(nil)
	if w.extends(full, fq, v, *brown) {
		t.Fatal("Brown extends to a full assignment of m2")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.Ctx = ctx
	if !w.extends(full, fq, v, *brown) {
		t.Error("a cancelled search showed Brown as not extending")
	}
}
