package load_test

import (
	"bytes"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/load"
	"muse/internal/nr"
)

// fuzzCatalog is the fixed schema the load fuzzers parse against: a
// flat set for CSV plus a nested one (with a dotted record atom) so
// the XML decoder's recursion and SetID plumbing get exercised.
func fuzzCatalog() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("R", nr.SetOf(nr.Record(
			nr.F("a", nr.StringType()),
			nr.F("b", nr.StringType()),
			nr.F("addr", nr.Record(nr.F("city", nr.StringType()))),
			nr.F("Kids", nr.SetOf(nr.Record(nr.F("k", nr.StringType())))),
		))),
		nr.F("Q", nr.SetOf(nr.Record(nr.F("x", nr.StringType())))),
	)))
}

// FuzzCSV feeds arbitrary bytes to the CSV loader, into the
// single-column set Q (with or without a header) and into the
// multi-column set R (with a header, so rows may leave atoms unset): it
// must never panic, and any instance it accepts must survive a
// write/reload round trip unchanged.
func FuzzCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n"), true)
	f.Add([]byte("1,2,3\n4,5,6\n"), false)
	f.Add([]byte("a,a\n1,2\n"), true)      // duplicate header
	f.Add([]byte("b, a \nx,y\nz\n"), true) // ragged row
	f.Add([]byte("a\n\"qu\"\"oted\"\n"), true)
	f.Add([]byte("\xff\xfe,\x00\n"), false)
	f.Add([]byte("addr.city,b\n,x\n\"\",\n"), true)
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		for _, target := range []struct {
			set    string
			header bool
		}{{"Q", header}, {"R", true}} {
			in := instance.New(cat)
			if err := load.CSV(in, target.set, bytes.NewReader(data), target.header); err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := load.WriteCSV(in, target.set, &buf); err != nil {
				t.Fatalf("%s: WriteCSV failed on an accepted instance: %v", target.set, err)
			}
			in2 := instance.New(cat)
			if err := load.CSV(in2, target.set, bytes.NewReader(buf.Bytes()), true); err != nil {
				t.Fatalf("%s: reloading written CSV failed: %v\n%s", target.set, err, buf.String())
			}
			if !in.Equal(in2) {
				t.Fatalf("%s: round trip changed the instance:\n%s\nvs\n%s\n%s", target.set, in, in2, buf.String())
			}
		}
	})
}

// FuzzXML feeds arbitrary bytes to the XML loader: it must never
// panic, and any instance it accepts must survive a write/reparse
// round trip with the same total tuple count (SetIDs are renumbered,
// so only counts are comparable).
func FuzzXML(f *testing.F) {
	f.Add([]byte("<S><R><a>1</a><Kids><k>c</k></Kids></R></S>"))
	f.Add([]byte("<S><R><addr><city>x</city></addr></R><Q><x>1</x></Q></S>"))
	f.Add([]byte("<S><R><a>&lt;&amp;</a></R></S>"))
	f.Add([]byte("<S><R><Kids></Kids><Kids><k>1</k></Kids></R></S>"))
	f.Add([]byte("<S><nope/></S>"))
	f.Add([]byte("<wrong></wrong>"))
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := load.XML(cat, bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := load.WriteXML(in, &buf); err != nil {
			t.Fatalf("WriteXML failed on an accepted instance: %v", err)
		}
		in2, err := load.XML(cat, strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("reparsing written XML failed: %v\n%s", err, buf.String())
		}
		if got, want := in2.TupleCount(), in.TupleCount(); got != want {
			t.Fatalf("round trip changed tuple count: %d → %d\n%s", want, got, buf.String())
		}
	})
}
