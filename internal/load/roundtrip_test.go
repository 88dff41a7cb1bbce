package load

import (
	"bytes"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
)

// TestWriteCSVEmptySingleColumn is the minimized regression for the
// round-trip bug FuzzCSV found (corpus: testdata/fuzz/FuzzCSV): a
// single-column set holding an empty value serialized as a blank line,
// which csv readers skip, so the tuple vanished on reload. The writer
// must force quotes on that degenerate record.
func TestWriteCSVEmptySingleColumn(t *testing.T) {
	cat := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("Q", nr.SetOf(nr.Record(nr.F("x", nr.StringType())))),
	)))
	in := instance.New(cat)
	if err := CSV(in, "Q", strings.NewReader("0\n\"\"\n"), false); err != nil {
		t.Fatal(err)
	}
	st := cat.ByPath(nr.ParsePath("Q"))
	if got := in.Top(st).Len(); got != 2 {
		t.Fatalf("loaded %d tuples, want 2", got)
	}
	var buf bytes.Buffer
	if err := WriteCSV(in, "Q", &buf); err != nil {
		t.Fatal(err)
	}
	out := instance.New(cat)
	if err := CSV(out, "Q", bytes.NewReader(buf.Bytes()), true); err != nil {
		t.Fatalf("reload: %v\n%s", err, buf.String())
	}
	if got := out.Top(st).Len(); got != 2 {
		t.Fatalf("round trip kept %d tuples, want 2:\n%s", got, buf.String())
	}
}

// TestCSVRoundTripUnset writes sets that leave atoms unset. An atom no
// tuple sets is left out of the header, so the reload keeps it unset
// and equals the original. An atom set on some tuples and unset on
// others cannot be told from the empty string in CSV: WriteCSV refuses
// it, naming the set, the row and the column, where it used to write
// the tuples (1, IBM, unset) and (1, IBM, "") as two equal rows.
func TestCSVRoundTripUnset(t *testing.T) {
	cat := relCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	row := func(in *instance.Instance, loc instance.Value) {
		in.InsertTop(st, in.NewTuple(st).Put("cid", instance.CI(1)).Put("cname", instance.C("IBM")).Put("location", loc))
	}

	in := instance.New(cat)
	row(in, nil)
	in.InsertTop(st, in.NewTuple(st).Put("cid", instance.CI(2)).Put("cname", instance.C("")))
	var buf bytes.Buffer
	if err := WriteCSV(in, "Companies", &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "cid,cname\n1,IBM\n2,\n"; got != want {
		t.Fatalf("WriteCSV wrote %q, want %q", got, want)
	}
	back := instance.New(cat)
	if err := CSV(back, "Companies", &buf, true); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(back) {
		t.Fatalf("round trip changed the instance:\n%s\nvs\n%s", in, back)
	}

	mixed := instance.New(cat)
	row(mixed, nil)
	row(mixed, instance.C(""))
	err := WriteCSV(mixed, "Companies", &bytes.Buffer{})
	if err == nil {
		t.Fatal("WriteCSV wrote an atom that is unset on one row and empty on another")
	}
	for _, want := range []string{"Companies", "row 1", `"location"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
