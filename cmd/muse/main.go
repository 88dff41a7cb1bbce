// Command muse is the interactive mapping design wizard: it loads a
// scenario from a Muse document and walks the designer — you — through
// Muse-D (disambiguation) and Muse-G (grouping design) questions on
// small data examples, then prints the refined mappings.
//
// Usage:
//
//	muse -doc scenario.muse -src CompDB -tgt OrgDB [-instance I] [-mode session]
//	muse -scenario mondial [-scale 0.05] [-auto] [-auto-threshold 0.15]
//
// Instead of -doc/-src/-tgt, -scenario loads one of the paper's four
// Sec. VI evaluation scenarios (mondial, dblp, tpch, amalgam) with a
// deterministic synthetic instance at -scale (1 approximates the
// paper's data size).
//
// Modes:
//
//	session       Muse-D then Muse-G over every mapping (default)
//	disambiguate  Muse-D only
//	group         Muse-G only (requires -mapping; -sk optional)
//	groupmore     incremental Muse-G: try to drop grouping arguments
//	groupless     incremental Muse-G: try to add grouping arguments
//	joins         choose inner/outer join semantics (requires -mapping)
//
// In session mode every question is scored against the instance
// evidence (FD conformance, support counts, duplication): the prompt
// shows the suggested answer with its confidence, and pressing Enter
// (or "a" for a whole choice question) accepts the suggestions in one
// keystroke. -auto goes further and answers every question whose
// ranking is decisive at -auto-threshold unattended, only escalating
// ties and low-confidence questions to the terminal; the exit summary
// reports how many questions were saved.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"muse"
	"muse/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	docPath := flag.String("doc", "", "path to the Muse document")
	src := flag.String("src", "", "source schema name")
	tgt := flag.String("tgt", "", "target schema name")
	inst := flag.String("instance", "", "source instance to draw examples from (optional)")
	mode := flag.String("mode", "session", "session | disambiguate | group | groupmore | groupless | joins")
	mapName := flag.String("mapping", "", "mapping to refine (group* modes)")
	skName := flag.String("sk", "", "grouping function to design (group* modes; default: all)")
	scenario := flag.String("scenario", "", "built-in Sec. VI scenario (mondial, dblp, tpch, amalgam) instead of -doc")
	scale := flag.String("scale", "0.05", "synthetic instance scale for -scenario (1 = paper size; SF<n> works)")
	auto := flag.Bool("auto", false, "answer decisively ranked questions unattended (session mode)")
	autoThreshold := flag.Float64("auto-threshold", muse.DefaultRankThreshold, "confidence margin for a decisive ranking")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot here on exit (- for stdout)")
	tracePath := flag.String("trace", "", "stream span events (JSON lines) to this file")
	flag.Parse()

	var set *muse.MappingSet
	var real *muse.Instance
	var deps *muse.Constraints
	switch {
	case *scenario != "":
		sc, err := scenarios.ByName(*scenario)
		if err != nil {
			log.Fatal(err)
		}
		sf, err := scenarios.ParseScale(*scale)
		if err != nil {
			log.Fatal(err)
		}
		if set, err = sc.Generate(); err != nil {
			log.Fatal(err)
		}
		real = sc.NewInstance(sf)
		deps = sc.Src
	case *docPath == "" || *src == "" || *tgt == "":
		flag.Usage()
		os.Exit(2)
	default:
		text, err := os.ReadFile(*docPath)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := muse.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
		if set, err = doc.MappingSet(*src, *tgt); err != nil {
			log.Fatal(err)
		}
		if *inst != "" {
			real = doc.Instances[*inst]
			if real == nil {
				log.Fatalf("document has no instance %q", *inst)
			}
		}
		deps = doc.Deps[*src]
	}
	ui := &console{in: bufio.NewReader(os.Stdin)}

	var o *muse.Obs
	var traceFile *os.File
	if *metricsPath != "" || *tracePath != "" {
		o = muse.NewObs()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			traceFile = f
			o.Tr.SetSink(traceFile)
		}
	}

	switch *mode {
	case "session":
		// Session mode always ranks: interactively the console shows
		// the suggestions, under -auto they answer decisive questions.
		session := muse.NewSession(deps, real).Observe(o).Rank(*autoThreshold)
		gd, dd := muse.GroupingDesigner(ui), muse.DisambiguationDesigner(ui)
		var unattended *muse.AutoDesigner
		if *auto {
			unattended = muse.NewAutoDesigner(*autoThreshold, ui, ui)
			unattended.Obs = o
			gd, dd = unattended, unattended
		}
		out, err := session.Run(set, gd, dd)
		if err != nil {
			log.Fatal(err)
		}
		printMappings(out.Mappings)
		fmt.Printf("(%d disambiguation question(s), %d grouping question(s))\n",
			session.Disambiguation.Stats.TotalQuestions(),
			session.Grouping.Stats.TotalQuestions())
		if unattended != nil {
			st := unattended.Stats
			fmt.Printf("(auto-answered %d of %d question(s), escalated %d — %.0f%% unattended)\n",
				st.Auto+st.Forced, st.Questions(), st.Escalated, 100*st.SavedFraction())
		}
	case "disambiguate":
		w := muse.NewDisambiguationWizard(deps, real)
		w.Obs = o
		var out []*muse.Mapping
		for _, m := range set.Mappings {
			ms, err := w.Disambiguate(m, ui)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, ms...)
		}
		printMappings(out)
	case "group", "groupmore", "groupless":
		m := set.ByName(*mapName)
		if m == nil {
			log.Fatalf("no mapping %q (have: %s)", *mapName, names(set.Mappings))
		}
		w := muse.NewGroupingWizard(deps, real)
		w.Obs = o
		var out *muse.Mapping
		var err error
		switch {
		case *mode == "group" && *skName == "":
			out, err = w.DesignMapping(m, ui)
		case *mode == "group":
			out, err = w.DesignSK(m, *skName, ui)
		case *mode == "groupmore":
			out, err = w.GroupMore(m, *skName, ui)
		default:
			out, err = w.GroupLess(m, *skName, ui)
		}
		if err != nil {
			log.Fatal(err)
		}
		printMappings([]*muse.Mapping{out})
	case "joins":
		m := set.ByName(*mapName)
		if m == nil {
			log.Fatalf("no mapping %q (have: %s)", *mapName, names(set.Mappings))
		}
		w := muse.NewDisambiguationWizard(deps, real)
		w.Obs = o
		out, err := w.DesignJoins(m, ui)
		if err != nil {
			log.Fatal(err)
		}
		printMappings(out)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	if traceFile != nil {
		traceFile.Close()
	}
	if o != nil && *metricsPath != "" {
		if err := o.Reg.WriteFile(*metricsPath); err != nil {
			log.Fatal(err)
		}
	}
}

func printMappings(ms []*muse.Mapping) {
	fmt.Println("=== refined mappings ===")
	for _, m := range ms {
		fmt.Println(muse.FormatMapping(m))
	}
}

func names(ms []*muse.Mapping) string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return strings.Join(out, ", ")
}

// console poses wizard questions on the terminal.
type console struct {
	in *bufio.Reader
	n  int
}

// ChooseScenario implements muse.GroupingDesigner.
func (c *console) ChooseScenario(q *muse.GroupingQuestion) (int, error) {
	c.n++
	origin := "synthetic example"
	if q.Real {
		origin = "example drawn from your instance"
	}
	fmt.Printf("\n━━━ Question %d — mapping %s, grouping %s (%s) ━━━\n", c.n, q.Mapping.Name, q.SK, origin)
	if q.Probe.Var != "" {
		fmt.Printf("Should %s take part in the grouping?\n", q.Probe)
	} else {
		fmt.Println("Should the data be grouped by its key (one group per key value)?")
	}
	fmt.Println("\nExample source:")
	fmt.Print(indent(q.Source.StringCompact()))
	fmt.Printf("\nScenario 1 — group by {%s}:\n", exprList(q.Include1))
	fmt.Print(indent(q.Scenario1.StringCompact()))
	fmt.Printf("\nScenario 2 — group by {%s}:\n", exprList(q.Include2))
	fmt.Print(indent(q.Scenario2.StringCompact()))
	if rk := q.Ranking; rk != nil {
		fmt.Printf("\nSuggested: scenario %d (confidence %.2f", rk.Best, rk.Confidence)
		if rk.Decisive {
			fmt.Print(", decisive")
		}
		fmt.Println(")")
		for _, s := range rk.Scores {
			fmt.Printf("  [%d] %.2f  %s\n", s.Option, s.Value, s.Evidence)
		}
	}
	for {
		prompt := "\nWhich target looks correct? [1/2] "
		if q.Ranking != nil {
			prompt = fmt.Sprintf("\nWhich target looks correct? [1/2, Enter = %d] ", q.Ranking.Best)
		}
		fmt.Print(prompt)
		line, err := c.in.ReadString('\n')
		if err != nil {
			return 0, err
		}
		switch strings.TrimSpace(line) {
		case "1":
			return 1, nil
		case "2":
			return 2, nil
		case "":
			if q.Ranking != nil {
				return q.Ranking.Best, nil
			}
		}
		fmt.Println("please answer 1 or 2")
	}
}

// SelectValues implements muse.DisambiguationDesigner.
func (c *console) SelectValues(q *muse.ChoiceQuestion) ([][]int, error) {
	c.n++
	fmt.Printf("\n━━━ Question %d — mapping %s is ambiguous ━━━\n", c.n, q.Mapping.Name)
	fmt.Println("Example source:")
	fmt.Print(indent(q.Source.StringCompact()))
	fmt.Println("\nPartial target instance:")
	fmt.Print(indent(q.Target.StringCompact()))
	ranked := len(q.Rankings) == len(q.Choices) && len(q.Choices) > 0
	if ranked {
		// The question batches every or-group into one prompt; when all
		// of them are ranked, one keystroke accepts the whole batch.
		fmt.Println("\nSuggested (per ambiguous element):")
		for i, ch := range q.Choices {
			rk := q.Rankings[i]
			state := ""
			if rk.Decisive {
				state = ", decisive"
			}
			fmt.Printf("  %s → [%d] %s (confidence %.2f%s)\n",
				ch.Element, rk.Best, ch.Values[rk.Best-1], rk.Confidence, state)
		}
		fmt.Print("accept all suggestions? [a = yes, anything else picks individually] ")
		line, err := c.in.ReadString('\n')
		if err != nil {
			return nil, err
		}
		switch strings.TrimSpace(line) {
		case "a", "A", "y", "yes":
			out := make([][]int, len(q.Choices))
			for i := range out {
				out[i] = []int{q.Rankings[i].Best - 1}
			}
			return out, nil
		}
	}
	out := make([][]int, len(q.Choices))
	for i, ch := range q.Choices {
		fmt.Printf("\nValue(s) for %s:\n", ch.Element)
		for j, v := range ch.Values {
			fmt.Printf("  [%d] %s\n", j+1, v)
		}
		suggest := ""
		if ranked {
			suggest = fmt.Sprintf(", Enter = %d", q.Rankings[i].Best)
		}
		for {
			fmt.Printf("pick one or more (e.g. 1 or 1,2%s): ", suggest)
			line, err := c.in.ReadString('\n')
			if err != nil {
				return nil, err
			}
			if ranked && strings.TrimSpace(line) == "" {
				out[i] = []int{q.Rankings[i].Best - 1}
				break
			}
			sel, ok := parseSelection(line, len(ch.Values))
			if ok {
				out[i] = sel
				break
			}
			fmt.Println("invalid selection")
		}
	}
	return out, nil
}

// ChooseJoin implements muse.JoinDesigner.
func (c *console) ChooseJoin(q *muse.JoinQuestion) (bool, error) {
	c.n++
	origin := "synthetic example"
	if q.Real {
		origin = "example drawn from your instance"
	}
	fmt.Printf("\n━━━ Question %d — join semantics of %s (%s) ━━━\n", c.n, q.Mapping.Name, origin)
	fmt.Printf("This data matches only {%s} (no full join partner):\n", strings.Join(q.Variant.Keep, ", "))
	fmt.Print(indent(q.Source.StringCompact()))
	fmt.Println("\nScenario 1 — exchange the unmatched data too (outer):")
	fmt.Print(indent(q.WithVariant.StringCompact()))
	fmt.Println("\nScenario 2 — exchange matched combinations only (inner):")
	fmt.Print(indent(q.WithoutVariant.StringCompact()))
	for {
		fmt.Print("\nWhich target looks correct? [1/2] ")
		line, err := c.in.ReadString('\n')
		if err != nil {
			return false, err
		}
		switch strings.TrimSpace(line) {
		case "1":
			return true, nil
		case "2":
			return false, nil
		}
		fmt.Println("please answer 1 or 2")
	}
}

func parseSelection(line string, n int) ([]int, bool) {
	var out []int
	for _, part := range strings.Split(strings.TrimSpace(line), ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > n {
			return nil, false
		}
		out = append(out, v-1)
	}
	return out, len(out) > 0
}

func exprList(es []muse.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ") + "\n"
}
