package server

import (
	"muse/internal/core"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/parser"
	"muse/internal/rank"
)

// RenderInstance converts an instance into a JSON-encodable tree:
//
//	{"schema": "CompDB", "sets": {"Companies": [ {tuple} ... ]}}
//
// Atomic attributes map to their display strings; a nested set field
// maps to {"id": "SKProjects(IBM)", "tuples": [ {tuple} ... ]}, so the
// grouping — which tuples share a set — stays visible, exactly what
// the wizard's two-scenario questions hinge on. encoding/json sorts
// object keys, making the rendering deterministic.
func RenderInstance(in *instance.Instance) map[string]any {
	sets := map[string]any{}
	for _, st := range in.Cat.TopLevel() {
		sets[st.Path.String()] = renderTuples(in, in.Top(st), st)
	}
	return map[string]any{"schema": in.Schema.Name, "sets": sets}
}

func renderTuples(in *instance.Instance, sv *instance.SetVal, st *nr.SetType) []map[string]any {
	out := []map[string]any{}
	if sv == nil {
		return out
	}
	sv.Each(func(t *instance.Tuple) bool {
		row := map[string]any{}
		for _, a := range st.Atoms {
			if v := t.Get(a); v != nil {
				row[a] = v.String()
			} else {
				row[a] = nil
			}
		}
		for _, f := range st.SetFields {
			child := st.Child(f)
			ref, _ := t.Get(f).(*instance.SetRef)
			if ref == nil {
				row[f] = nil
				continue
			}
			row[f] = map[string]any{
				"id":     ref.String(),
				"tuples": renderTuples(in, in.Set(ref), child),
			}
		}
		out = append(out, row)
		return true
	})
	return out
}

func renderExprs(es []mapping.Expr) []string {
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, e.String())
	}
	return out
}

// renderRanking shapes one rank.Ranking: the per-option scores with
// their evidence, the recommended option, and whether the margin
// clears the scorer's threshold. All floats are pre-quantized by the
// rank package, so the rendering is deterministic and short.
func renderRanking(r *rank.Ranking) map[string]any {
	scores := []map[string]any{}
	for _, s := range r.Scores {
		scores = append(scores, map[string]any{
			"option":   s.Option,
			"value":    s.Value,
			"evidence": s.Evidence,
		})
	}
	return map[string]any{
		"best":       r.Best,
		"confidence": r.Confidence,
		"decisive":   r.Decisive,
		"scores":     scores,
	}
}

// renderGrouping shapes a Muse-G two-scenario question.
func renderGrouping(q *core.GroupingQuestion) map[string]any {
	probe := ""
	if q.Probe.Var != "" {
		probe = q.Probe.String()
	}
	out := map[string]any{
		"mapping":   q.Mapping.Name,
		"sk":        q.SK,
		"probe":     probe,
		"confirmed": renderExprs(q.Confirmed),
		"real":      q.Real,
		"source":    RenderInstance(q.Source),
		"scenario1": map[string]any{
			"group_by": renderExprs(q.Include1),
			"target":   RenderInstance(q.Scenario1),
		},
		"scenario2": map[string]any{
			"group_by": renderExprs(q.Include2),
			"target":   RenderInstance(q.Scenario2),
		},
	}
	if q.Ranking != nil {
		out["ranking"] = renderRanking(q.Ranking)
	}
	return out
}

// renderChoice shapes the single Muse-D question of an ambiguous
// mapping.
func renderChoice(q *core.ChoiceQuestion) map[string]any {
	choices := []map[string]any{}
	for _, ch := range q.Choices {
		vals := []string{}
		for _, v := range ch.Values {
			vals = append(vals, v.String())
		}
		choices = append(choices, map[string]any{
			"element": ch.Element.String(),
			"values":  vals,
		})
	}
	out := map[string]any{
		"mapping": q.Mapping.Name,
		"real":    q.Real,
		"source":  RenderInstance(q.Source),
		"target":  RenderInstance(q.Target),
		"choices": choices,
	}
	if len(q.Rankings) > 0 {
		rks := []map[string]any{}
		for i := range q.Rankings {
			rks = append(rks, renderRanking(&q.Rankings[i]))
		}
		out["rankings"] = rks
	}
	return out
}

// renderMappings shapes a terminal result: the refined mappings in the
// Muse document syntax (the same text parser.FormatMapping prints for
// the CLI, so wire results are byte-comparable to in-process runs).
func renderMappings(set *mapping.Set) []map[string]any {
	out := []map[string]any{}
	for _, m := range set.Mappings {
		out = append(out, map[string]any{
			"name": m.Name,
			"text": parser.FormatMapping(m),
		})
	}
	return out
}

// renderStep shapes one core.Step for the wire. state is one of
// "grouping_question", "choice_question", "done", "failed".
func renderStep(s core.Step) map[string]any {
	out := map[string]any{"seq": s.Seq}
	switch {
	case s.Grouping != nil:
		out["state"] = "grouping_question"
		out["grouping"] = renderGrouping(s.Grouping)
	case s.Choice != nil:
		out["state"] = "choice_question"
		out["choice"] = renderChoice(s.Choice)
	case s.Err != nil:
		out["state"] = "failed"
		out["error"] = s.Err.Error()
	default:
		out["state"] = "done"
		out["mappings"] = renderMappings(s.Result)
	}
	return out
}

// stepBody is a session envelope around a rendered step.
func stepBody(s *Session, step core.Step) map[string]any {
	return map[string]any{
		"token":    s.Token,
		"scenario": s.ScenarioName,
		"step":     renderStep(step),
	}
}
