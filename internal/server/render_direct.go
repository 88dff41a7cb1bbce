package server

import (
	"sort"
	"sync"

	"muse/internal/core"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/parser"
	"muse/internal/rank"
)

// This file is the serving twin of the map-tree reference renderer
// (render_ref_test.go): the same response shapes, written straight
// into a pooled buffer instead of through a map[string]any tree and
// reflection-driven encoding. The map-based renderer stays in test
// code as the executable specification — the differential test drives
// full dialogs through both and requires byte-identical output — while
// every step-producing request is served by these writers. Object
// keys are emitted in sorted order (what encoding/json does to map
// keys); runtime-ordered keys (set names, tuple columns) are sorted
// here, with the per-set column order cached per SetType.

// rowKey is one column of a tuple rendering: an atomic attribute, or
// a nested set field with its child type.
type rowKey struct {
	name  string
	child *nr.SetType // nil for atoms
}

// rowKeysCache maps *nr.SetType to its sorted []rowKey. SetTypes are
// immutable once built by the catalog, so the cache never invalidates.
var rowKeysCache sync.Map

func rowKeys(st *nr.SetType) []rowKey {
	if ks, ok := rowKeysCache.Load(st); ok {
		return ks.([]rowKey)
	}
	ks := make([]rowKey, 0, len(st.Atoms)+len(st.SetFields))
	for _, a := range st.Atoms {
		ks = append(ks, rowKey{name: a})
	}
	for _, f := range st.SetFields {
		ks = append(ks, rowKey{name: f, child: st.Child(f)})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].name < ks[j].name })
	ks2, _ := rowKeysCache.LoadOrStore(st, ks)
	return ks2.([]rowKey)
}

// appendInstance writes the RenderInstance shape.
func appendInstance(w *jw, in *instance.Instance) {
	w.openObj()
	w.key("schema")
	w.str(in.Schema.Name)
	w.key("sets")
	w.openObj()
	top := in.Cat.TopLevel()
	names := make([]string, len(top))
	for i, st := range top {
		names[i] = st.Path.String()
	}
	order := make([]int, len(top))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	for _, i := range order {
		st := top[i]
		w.key(names[i])
		appendTuples(w, in, in.Top(st), st)
	}
	w.closeObj()
	w.closeObj()
}

func appendTuples(w *jw, in *instance.Instance, sv *instance.SetVal, st *nr.SetType) {
	w.openArr()
	if sv == nil {
		w.closeArr()
		return
	}
	keys := rowKeys(st)
	sv.Each(func(t *instance.Tuple) bool {
		w.openObj()
		for _, k := range keys {
			w.key(k.name)
			if k.child == nil {
				if v := t.Get(k.name); v != nil {
					w.strDisplay(v)
				} else {
					w.null()
				}
				continue
			}
			ref, _ := t.Get(k.name).(*instance.SetRef)
			if ref == nil {
				w.null()
				continue
			}
			w.openObj()
			w.key("id")
			w.strDisplay(ref)
			w.key("tuples")
			appendTuples(w, in, in.Set(ref), k.child)
			w.closeObj()
		}
		w.closeObj()
		return true
	})
	w.closeArr()
}

func appendExprs(w *jw, es []mapping.Expr) {
	w.openArr()
	for _, e := range es {
		w.str(e.String())
	}
	w.closeArr()
}

// appendRanking writes the renderRanking shape. Sorted keys: best,
// confidence, decisive, scores; per score: evidence, option, value.
func appendRanking(w *jw, r *rank.Ranking) {
	w.openObj()
	w.key("best")
	w.int(r.Best)
	w.key("confidence")
	w.float(r.Confidence)
	w.key("decisive")
	w.bool(r.Decisive)
	w.key("scores")
	w.openArr()
	for _, s := range r.Scores {
		w.openObj()
		w.key("evidence")
		w.str(s.Evidence)
		w.key("option")
		w.int(s.Option)
		w.key("value")
		w.float(s.Value)
		w.closeObj()
	}
	w.closeArr()
	w.closeObj()
}

// appendGrouping writes the renderGrouping shape.
func appendGrouping(w *jw, q *core.GroupingQuestion) {
	w.openObj()
	w.key("confirmed")
	appendExprs(w, q.Confirmed)
	w.key("mapping")
	w.str(q.Mapping.Name)
	w.key("probe")
	if q.Probe.Var != "" {
		w.str(q.Probe.String())
	} else {
		w.str("")
	}
	if q.Ranking != nil {
		w.key("ranking")
		appendRanking(w, q.Ranking)
	}
	w.key("real")
	w.bool(q.Real)
	w.key("scenario1")
	w.openObj()
	w.key("group_by")
	appendExprs(w, q.Include1)
	w.key("target")
	appendInstance(w, q.Scenario1)
	w.closeObj()
	w.key("scenario2")
	w.openObj()
	w.key("group_by")
	appendExprs(w, q.Include2)
	w.key("target")
	appendInstance(w, q.Scenario2)
	w.closeObj()
	w.key("sk")
	w.str(q.SK)
	w.key("source")
	appendInstance(w, q.Source)
	w.closeObj()
}

// appendChoice writes the renderChoice shape.
func appendChoice(w *jw, q *core.ChoiceQuestion) {
	w.openObj()
	w.key("choices")
	w.openArr()
	for _, ch := range q.Choices {
		w.openObj()
		w.key("element")
		w.str(ch.Element.String())
		w.key("values")
		w.openArr()
		for _, v := range ch.Values {
			w.strDisplay(v)
		}
		w.closeArr()
		w.closeObj()
	}
	w.closeArr()
	w.key("mapping")
	w.str(q.Mapping.Name)
	if len(q.Rankings) > 0 {
		w.key("rankings")
		w.openArr()
		for i := range q.Rankings {
			appendRanking(w, &q.Rankings[i])
		}
		w.closeArr()
	}
	w.key("real")
	w.bool(q.Real)
	w.key("source")
	appendInstance(w, q.Source)
	w.key("target")
	appendInstance(w, q.Target)
	w.closeObj()
}

// appendMappings writes the renderMappings shape.
func appendMappings(w *jw, set *mapping.Set) {
	w.openArr()
	for _, m := range set.Mappings {
		w.openObj()
		w.key("name")
		w.str(m.Name)
		w.key("text")
		w.str(parser.FormatMapping(m))
		w.closeObj()
	}
	w.closeArr()
}

// appendStep writes the renderStep shape.
func appendStep(w *jw, s core.Step) {
	w.openObj()
	switch {
	case s.Grouping != nil:
		w.key("grouping")
		appendGrouping(w, s.Grouping)
		w.key("seq")
		w.int(s.Seq)
		w.key("state")
		w.str("grouping_question")
	case s.Choice != nil:
		w.key("choice")
		appendChoice(w, s.Choice)
		w.key("seq")
		w.int(s.Seq)
		w.key("state")
		w.str("choice_question")
	case s.Err != nil:
		w.key("error")
		w.str(s.Err.Error())
		w.key("seq")
		w.int(s.Seq)
		w.key("state")
		w.str("failed")
	default:
		w.key("mappings")
		appendMappings(w, s.Result)
		w.key("seq")
		w.int(s.Seq)
		w.key("state")
		w.str("done")
	}
	w.closeObj()
}

// appendStepBody writes the stepBody envelope: the full document of a
// step-producing response, terminated like Encoder.Encode.
func appendStepBody(w *jw, s *Session, step core.Step) {
	w.openObj()
	w.key("scenario")
	w.str(s.ScenarioName)
	w.key("step")
	appendStep(w, step)
	w.key("token")
	w.str(s.Token)
	w.closeObj()
	w.finish()
}

// appendResult writes the handleResult terminal document.
func appendResult(w *jw, s *Session, step core.Step) {
	w.openObj()
	if step.Err != nil {
		w.key("error")
		w.str(step.Err.Error())
		w.key("scenario")
		w.str(s.ScenarioName)
		w.key("state")
		w.str("failed")
		w.key("token")
		w.str(s.Token)
		w.closeObj()
		w.finish()
		return
	}
	w.key("mappings")
	appendMappings(w, step.Result)
	w.key("questions")
	w.int(step.Seq)
	w.key("scenario")
	w.str(s.ScenarioName)
	w.key("state")
	w.str("done")
	w.key("token")
	w.str(s.Token)
	w.closeObj()
	w.finish()
}
