// Command musechase chases an instance with the mappings of a Muse
// document and prints the canonical universal solution.
//
// Usage:
//
//	musechase -doc scenario.muse -src CompDB -tgt OrgDB -instance I
//
// The document (see internal/parser for the syntax) declares the two
// schemas, their constraints, the mappings, and the instance.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"muse"
)

func main() {
	log.SetFlags(0)
	docPath := flag.String("doc", "", "path to the Muse document")
	src := flag.String("src", "", "source schema name")
	tgt := flag.String("tgt", "", "target schema name")
	inst := flag.String("instance", "", "instance name to chase (defaults to the only one)")
	xmlPath := flag.String("xml", "", "load the source instance from this XML file instead")
	outXML := flag.Bool("oxml", false, "print the result as XML instead of the nested text form")
	sql := flag.Bool("sql", false, "print the SQL transformation script instead of chasing")
	metricsPath := flag.String("metrics", "", "write a metrics snapshot here on exit (- for stdout)")
	tracePath := flag.String("trace", "", "stream span events (JSON lines) to this file")
	flag.Parse()

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
	set, err := doc.MappingSet(*src, *tgt)
	if err != nil {
		log.Fatal(err)
	}
	if len(set.Mappings) == 0 {
		log.Fatalf("document has no mappings from %s to %s", *src, *tgt)
	}
	if *sql {
		script, err := muse.GenerateScript(set)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(script)
		return
	}
	var source *muse.Instance
	if *xmlPath != "" {
		f, err := os.Open(*xmlPath)
		if err != nil {
			log.Fatal(err)
		}
		source, err = muse.LoadXML(doc.Schemas[*src], f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		name := *inst
		if name == "" {
			if len(doc.Instances) != 1 {
				log.Fatalf("document has %d instances; pick one with -instance", len(doc.Instances))
			}
			for n := range doc.Instances {
				name = n
			}
		}
		var ok bool
		source, ok = doc.Instances[name]
		if !ok {
			log.Fatalf("document has no instance %q", name)
		}
	}
	if amb := set.Ambiguous(); len(amb) > 0 {
		log.Fatalf("mapping %s is ambiguous; disambiguate it first (cmd/muse -mode disambiguate)", amb[0].Name)
	}
	var o *muse.Obs
	var traceFile *os.File
	if *metricsPath != "" || *tracePath != "" {
		o = muse.NewObs()
		if *tracePath != "" {
			traceFile, err = os.Create(*tracePath)
			if err != nil {
				log.Fatal(err)
			}
			o.Tr.SetSink(traceFile)
		}
	}
	out, err := muse.ChaseObs(source, o, set.Mappings...)
	if err != nil {
		log.Fatal(err)
	}
	if *outXML {
		if err := muse.WriteXML(out, os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(out)
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
