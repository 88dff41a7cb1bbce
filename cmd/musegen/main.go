// Command musegen runs the Clio-style mapping generator: it reads a
// Muse document's schemas, constraints and correspondence arrows, and
// prints the generated mappings (with default G1 grouping functions
// and or-groups where arrows are ambiguous) in the document syntax —
// ready to be refined with cmd/muse.
//
// Usage:
//
//	musegen -doc scenario.muse -src CompDB -tgt OrgDB [-sql]
//
// With -scenario, musegen instead generates a built-in evaluation
// scenario's scaled source instance (the "scenario firehose"): it
// prints instance statistics and, with -out, exports every top-level
// set as CSV into the given directory.
//
//	musegen -scenario TPCH -scale SF2 -out /tmp/tpch-sf2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"muse"
	"muse/internal/load"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	docPath := flag.String("doc", "", "path to the Muse document")
	src := flag.String("src", "", "source schema name")
	tgt := flag.String("tgt", "", "target schema name")
	sql := flag.Bool("sql", false, "also print the SQL transformation script")
	scenario := flag.String("scenario", "", "generate a built-in scenario's source instance (Mondial, DBLP, TPCH, Amalgam) instead of reading a document")
	scaleFlag := flag.String("scale", "1", "instance scale for -scenario: a float or SF<n>")
	outDir := flag.String("out", "", "with -scenario: export each top-level set as CSV into this directory")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot here on exit (- for stdout)")
	flag.Parse()

	if *scenario != "" {
		if err := generateScenario(*scenario, *scaleFlag, *outDir); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *docPath == "" || *src == "" || *tgt == "" {
		flag.Usage()
		os.Exit(2)
	}
	text, err := os.ReadFile(*docPath)
	if err != nil {
		log.Fatal(err)
	}
	doc, err := muse.Parse(string(text))
	if err != nil {
		log.Fatal(err)
	}
	corrs := doc.CorrsBetween(*src, *tgt)
	if len(corrs) == 0 {
		log.Fatalf("document has no correspondences from %s to %s", *src, *tgt)
	}
	var o *muse.Obs
	if *metricsPath != "" {
		o = muse.NewObs()
	}
	sp := o.Start(obs.SpanGen)
	set, err := muse.GenerateMappings(doc.Deps[*src], doc.Deps[*tgt], corrs)
	if err != nil {
		log.Fatal(err)
	}
	if o != nil {
		o.Counter(obs.MGenMappings).Add(int64(len(set.Mappings)))
		o.Counter(obs.MGenAmbiguous).Add(int64(len(set.Ambiguous())))
		sp.Attr("corrs", len(corrs)).Attr("mappings", len(set.Mappings)).Attr("ambiguous", len(set.Ambiguous())).End()
	}
	fmt.Printf("# generated %d mapping(s), %d ambiguous\n\n", len(set.Mappings), len(set.Ambiguous()))
	for _, m := range set.Mappings {
		fmt.Println(muse.FormatMapping(m))
	}
	if *sql {
		if len(set.Ambiguous()) > 0 {
			log.Fatal("cannot emit SQL for ambiguous mappings; refine with cmd/muse first")
		}
		script, err := muse.GenerateScript(set)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(script)
	}
	if o != nil {
		if err := o.Reg.WriteFile(*metricsPath); err != nil {
			log.Fatal(err)
		}
	}
}

// generateScenario builds the named scenario's source instance at the
// given scale, prints its statistics, and optionally exports each
// top-level set as CSV.
func generateScenario(name, scaleStr, outDir string) error {
	s, err := scenarios.ByName(name)
	if err != nil {
		return err
	}
	scale, err := scenarios.ParseScale(scaleStr)
	if err != nil {
		return err
	}
	start := time.Now()
	in := s.NewInstance(scale)
	elapsed := time.Since(start)
	fmt.Printf("scenario %s scale %g: %d sets, %d tuples, %d interned values, ~%d KB atoms, generated in %s\n",
		s.Name, scale, len(in.AllSets()), in.TupleCount(), in.Interned(), in.SizeBytes()/1024, elapsed.Round(time.Millisecond))
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, st := range in.Cat.TopLevel() {
		path := st.Path.String()
		f, err := os.Create(filepath.Join(outDir, path+".csv"))
		if err != nil {
			return err
		}
		if err := load.WriteCSV(in, path, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s.csv (%d tuples)\n", path, in.Top(st).Len())
	}
	return nil
}
