package load_test

import (
	"bytes"
	"testing"

	"muse/internal/instance"
	"muse/internal/load"
	"muse/internal/scenarios"
)

// loadSink keeps each loaded instance reachable, so the loads are not
// optimized away.
var loadSink *instance.Instance

// BenchmarkLoadCSV is the parse/load layer of a data exchange: TPCH at
// scale 0.02, written once with WriteCSV, then loaded per op into a
// fresh instance, every top-level set through CSV with its header.
func BenchmarkLoadCSV(b *testing.B) {
	src := scenarios.TPCH().NewInstance(0.02)
	sets := src.Cat.TopLevel()
	data := make([][]byte, len(sets))
	for i, st := range sets {
		var buf bytes.Buffer
		if err := load.WriteCSV(src, st.Path.String(), &buf); err != nil {
			b.Fatal(err)
		}
		data[i] = buf.Bytes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := instance.New(src.Cat)
		for j, st := range sets {
			if err := load.CSV(in, st.Path.String(), bytes.NewReader(data[j]), true); err != nil {
				b.Fatal(err)
			}
		}
		loadSink = in
	}
}
