package otel

import "testing"

// The fuzz targets hold each decoder to its reflection oracle on arbitrary
// bytes: no panic, an error iff the oracle errors, equal spans otherwise
// (checkAgainstOracle spells out the three documented divergences). The
// seeds are the committed corpus under testdata/fuzz plus an encoded trace.
func fuzzAgainstOracle(f *testing.F, name string) {
	data, err := dialectNamed(f, name).encode(richSpans(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstOracle(t, name, data) })
}

func FuzzDecodeOTLP(f *testing.F)   { fuzzAgainstOracle(f, "otlp") }
func FuzzDecodeZipkin(f *testing.F) { fuzzAgainstOracle(f, "zipkin") }
func FuzzDecodeJaeger(f *testing.F) { fuzzAgainstOracle(f, "jaeger") }
func FuzzDecodeSpans(f *testing.F)  { fuzzAgainstOracle(f, "spans") }
