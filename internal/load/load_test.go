package load

import (
	"bytes"
	"strings"
	"testing"

	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/nr"
)

func relCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("CompDB", nr.Record(
		nr.F("Companies", nr.SetOf(nr.Record(
			nr.F("cid", nr.IntType()),
			nr.F("cname", nr.StringType()),
			nr.F("location", nr.StringType()),
		))),
	)))
}

func nestedCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("DBLP1", nr.Record(
		nr.F("Articles", nr.SetOf(nr.Record(
			nr.F("akey", nr.StringType()),
			nr.F("title", nr.StringType()),
			nr.F("AuthorsOf", nr.SetOf(nr.Record(
				nr.F("name", nr.StringType()),
			))),
		))),
	)))
}

func TestCSVPositional(t *testing.T) {
	in := instance.New(relCat())
	data := "111,IBM,Almaden\n112,SBC,NY\n"
	if err := CSV(in, "Companies", strings.NewReader(data), false); err != nil {
		t.Fatal(err)
	}
	st := in.Cat.ByPath(nr.ParsePath("Companies"))
	if in.Top(st).Len() != 2 {
		t.Fatalf("loaded %d rows, want 2", in.Top(st).Len())
	}
	got := in.Top(st).Tuples()[0]
	if got.Get("cname").String() != "IBM" {
		t.Errorf("row 0 = %s", got)
	}
}

// TestCSVSeparatorBytesStayDistinct loads two rows whose constants
// hold the instance keys' separator bytes, placed so that naive key
// concatenation would render both rows alike: both must load.
func TestCSVSeparatorBytesStayDistinct(t *testing.T) {
	in := instance.New(relCat())
	data := "\"x\x04c\x00y\",z,NY\nx,\"y\x04c\x00z\",NY\n"
	if err := CSV(in, "Companies", strings.NewReader(data), false); err != nil {
		t.Fatal(err)
	}
	st := in.Cat.ByPath(nr.ParsePath("Companies"))
	if got := in.Top(st).Len(); got != 2 {
		t.Fatalf("loaded %d rows, want 2", got)
	}
}

func TestCSVHeader(t *testing.T) {
	in := instance.New(relCat())
	data := "cname,cid\nIBM,111\n"
	if err := CSV(in, "Companies", strings.NewReader(data), true); err != nil {
		t.Fatal(err)
	}
	st := in.Cat.ByPath(nr.ParsePath("Companies"))
	got := in.Top(st).Tuples()[0]
	if got.Get("cid").String() != "111" || got.Get("cname").String() != "IBM" {
		t.Errorf("header mapping wrong: %s", got)
	}
	if got.Get("location") != nil {
		t.Error("unlisted column should stay unset")
	}
}

func TestCSVErrors(t *testing.T) {
	in := instance.New(relCat())
	if err := CSV(in, "Nope", strings.NewReader(""), false); err == nil {
		t.Error("unknown set accepted")
	}
	if err := CSV(in, "Companies", strings.NewReader("a,b\n"), false); err == nil {
		t.Error("row with wrong arity accepted")
	}
	if err := CSV(in, "Companies", strings.NewReader("bogus\nx\n"), true); err == nil {
		t.Error("unknown header column accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := instance.New(relCat())
	in.MustInsertVals("Companies", "111", "IBM", "Almaden")
	in.MustInsertVals("Companies", "112", "SBC", "NY")
	var buf bytes.Buffer
	if err := WriteCSV(in, "Companies", &buf); err != nil {
		t.Fatal(err)
	}
	back := instance.New(relCat())
	if err := CSV(back, "Companies", &buf, true); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(back) {
		t.Error("CSV round trip changed the instance")
	}
}

const dblpXML = `
<DBLP1>
  <Articles>
    <akey>conf/1</akey>
    <title>On Mappings &amp; Examples</title>
    <AuthorsOf><name>Alice</name></AuthorsOf>
    <AuthorsOf><name>Bob</name></AuthorsOf>
  </Articles>
  <Articles>
    <akey>conf/2</akey>
    <title>Second</title>
  </Articles>
</DBLP1>`

func TestXMLLoad(t *testing.T) {
	cat := nestedCat()
	in, err := XML(cat, strings.NewReader(dblpXML))
	if err != nil {
		t.Fatal(err)
	}
	articles := cat.ByPath(nr.ParsePath("Articles"))
	authors := cat.ByPath(nr.ParsePath("Articles.AuthorsOf"))
	if in.Top(articles).Len() != 2 {
		t.Fatalf("loaded %d articles, want 2", in.Top(articles).Len())
	}
	if got := len(in.AllTuples(authors)); got != 2 {
		t.Errorf("loaded %d authors, want 2", got)
	}
	// Both authors in the first article's occurrence.
	first := in.Top(articles).Tuples()[0]
	ref := first.Get("AuthorsOf").(*instance.SetRef)
	if in.Set(ref).Len() != 2 {
		t.Errorf("first article has %d authors, want 2", in.Set(ref).Len())
	}
	// Entity unescaped.
	if got := first.Get("title").String(); got != "On Mappings & Examples" {
		t.Errorf("title = %q", got)
	}
	// The second article's AuthorsOf is an empty set, not missing.
	second := in.Top(articles).Tuples()[1]
	if _, ok := second.Get("AuthorsOf").(*instance.SetRef); !ok {
		t.Error("empty nested set not materialized")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	cat := nestedCat()
	in, err := XML(cat, strings.NewReader(dblpXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteXML(in, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := XML(cat, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, buf.String())
	}
	if !homo.Isomorphic(in, back) {
		t.Errorf("XML round trip not isomorphic:\n%s", buf.String())
	}
}

func TestXMLDottedAtoms(t *testing.T) {
	cat := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("People", nr.SetOf(nr.Record(
			nr.F("name", nr.StringType()),
			nr.F("address", nr.Record(
				nr.F("city", nr.StringType()),
				nr.F("zip", nr.IntType()),
			)),
		))),
	)))
	doc := `
<S>
  <People>
    <name>Ann</name>
    <address><city>Rome</city><zip>00100</zip></address>
  </People>
</S>`
	in, err := XML(cat, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	people := cat.ByPath(nr.ParsePath("People"))
	got := in.Top(people).Tuples()[0]
	if got.Get("address.city").String() != "Rome" || got.Get("address.zip").String() != "00100" {
		t.Errorf("dotted atoms wrong: %s", got)
	}
	// Round trip the nested record shape.
	var buf bytes.Buffer
	if err := WriteXML(in, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := XML(cat, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !homo.Isomorphic(in, back) {
		t.Errorf("dotted round trip not isomorphic:\n%s", buf.String())
	}
}

func TestXMLErrors(t *testing.T) {
	cat := nestedCat()
	if _, err := XML(cat, strings.NewReader("<Wrong></Wrong>")); err == nil {
		t.Error("wrong root accepted")
	}
	if _, err := XML(cat, strings.NewReader("<DBLP1><Nope/></DBLP1>")); err == nil {
		t.Error("unknown set element accepted")
	}
	if _, err := XML(cat, strings.NewReader("<DBLP1><Articles><zzz>1</zzz></Articles></DBLP1>")); err == nil {
		t.Error("unknown atom accepted")
	}
	if _, err := XML(cat, strings.NewReader("")); err == nil {
		t.Error("empty document accepted")
	}
}
