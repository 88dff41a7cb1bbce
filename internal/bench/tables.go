package bench

import (
	"fmt"
	"strings"
)

// FormatCharacteristics renders the Sec. VI scenario table with
// measured and paper columns side by side.
func FormatCharacteristics(rows []Characteristics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario characteristics (measured | paper)\n")
	fmt.Fprintf(&b, "%-10s %14s %18s %14s %14s\n", "Scenario", "size of I (MB)", "tgt sets w/ grp", "mappings", "ambiguous")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6.2f | %5.1f %8d | %6d %6d | %4d %6d | %4d\n",
			r.Scenario, r.SizeMB, r.PaperSizeMB,
			r.GroupingSets, r.PaperGroupingSets,
			r.Mappings, r.PaperMappings,
			r.Ambiguous, r.PaperAmbiguous)
	}
	return b.String()
}

// FormatMuseG renders Fig. 5 (measured, with the paper's avg poss for
// reference).
func FormatMuseG(rows []MuseGRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Muse-G results (Fig. 5)\n")
	fmt.Fprintf(&b, "%-10s %-5s %12s %12s %12s %14s\n",
		"Scenario", "strat", "avg|poss|", "avg quest.", "% real Ie", "avg time Ie")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-5s %12.1f %12.1f %11.0f%% %14s\n",
			r.Scenario, r.Strategy, r.AvgPoss, r.AvgQuestions,
			r.RealFraction*100, r.AvgExampleTime.Round(10_000).String())
	}
	return b.String()
}

// FormatMuseD renders the Muse-D table.
func FormatMuseD(rows []MuseDRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Muse-D results\n")
	fmt.Fprintf(&b, "%-10s %22s %12s %14s %16s %10s\n",
		"Scenario", "alternatives (paper)", "questions", "size of Ie", "#ambig. values", "% real")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d (%d) %12d %14s %16s %9.0f%%\n",
			r.Scenario, r.Alternatives, r.PaperAlternatives, r.Questions,
			rangeStr(r.IeTuplesMin, r.IeTuplesMax), rangeStr(r.ChoicesMin, r.ChoicesMax),
			r.RealFraction*100)
	}
	return b.String()
}

func rangeStr(lo, hi int) string {
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// FormatAuto renders the questions-saved table.
func FormatAuto(rows []AutoRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Auto-designer questions saved (interactive vs -auto)\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %12s %10s\n",
		"Scenario", "questions", "auto-answered", "escalated", "% saved")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %14d %12d %9.0f%%\n",
			r.Scenario, r.Questions, r.AutoAnswered, r.Escalated, r.Saved*100)
	}
	return b.String()
}
