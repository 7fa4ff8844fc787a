package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"github.com/sleuth-rca/sleuth/internal/nn"
)

// TestParamCountMatchesNewModel pins the pre-allocation size check to the
// architecture: paramCount must equal what NewModel actually allocates.
func TestParamCountMatchesNewModel(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{EmbeddingDim: 1, Hidden: 1},
		{EmbeddingDim: 8, Hidden: 24},
		{EmbeddingDim: 6, Hidden: 16, Variant: VariantGCN},
		{EmbeddingDim: 3, Hidden: 5, Variant: VariantGIN, PlainSum: true},
	} {
		cfg = cfg.withDefaults()
		if got, want := paramCount(cfg), nn.NumParams(NewModel(cfg)); got != float64(want) {
			t.Errorf("%+v: paramCount %.0f, NewModel allocates %d", cfg, got, want)
		}
	}
}

// TestLoadRejectsOversizedConfig: a tiny blob whose config asks for a
// 2²⁰-wide model must come back as an error, not allocate terabytes of
// weights (an out-of-memory fatal error no recover can catch).
func TestLoadRejectsOversizedConfig(t *testing.T) {
	var buf bytes.Buffer
	blob := snapshot{Format: snapshotFormat, EmbeddingDim: 1 << 20, Hidden: 1 << 20}
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if _, err := Load(&buf); err == nil {
		t.Fatalf("Load accepted a %d-byte blob configured for a 2^20-wide model", n)
	}
	t.Logf("%d-byte blob rejected", n)
	for _, dims := range [][2]int{{math.MaxInt, 1}, {1, math.MaxInt}, {math.MaxInt, math.MaxInt}} {
		buf.Reset()
		blob.EmbeddingDim, blob.Hidden = dims[0], dims[1]
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Fatalf("Load accepted EmbeddingDim=%d Hidden=%d with no parameters", dims[0], dims[1])
		}
	}
}

// TestLoadIgnoresDeclaredMapCount: gob sizes a fresh map by the entry
// count the blob declares, so a blob declaring 2²⁰ normals while carrying
// one must fail without reserving room for the rest.
func TestLoadIgnoresDeclaredMapCount(t *testing.T) {
	var buf bytes.Buffer
	blob := snapshot{Format: snapshotFormat, Normals: map[string]NormalStats{"k": {Count: 1}}}
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		t.Fatal(err)
	}
	// The normals map is the value message's "count 1, key of length 1,
	// k"; declare 2²⁰ entries instead (gob: 0xfd = three big-endian bytes
	// follow) and grow the message's length prefix to match.
	data := patchLastMessage(t, buf.Bytes(), "\x01\x01k", "\xfd\x10\x00\x00\x01k")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Load accepted a blob declaring 2^20 normals and carrying one")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte blob", grew, len(data))
	}
}

// patchLastMessage replaces old by new inside the last message of a gob
// stream and rewrites that message's length prefix.
func patchLastMessage(t *testing.T, stream []byte, old, new string) []byte {
	t.Helper()
	start, n := 0, 0
	for off := 0; off < len(stream); off += n {
		start = off
		var w int
		n, w = gobUint(stream[off:])
		off += w
	}
	msg := stream[start:]
	_, w := gobUint(msg)
	body := bytes.Replace(msg[w:], []byte(old), []byte(new), 1)
	if len(body) == len(msg[w:]) {
		t.Fatalf("pattern %q not in the last message", old)
	}
	if len(body) >= 128 {
		t.Fatalf("patched message is %d bytes; the one-byte length prefix is too short", len(body))
	}
	return append(append(stream[:start:start], byte(len(body))), body...)
}

// gobUint decodes one gob unsigned integer, returning it and its width.
func gobUint(b []byte) (int, int) {
	if b[0] < 0x80 {
		return int(b[0]), 1
	}
	w := int(-int8(b[0]))
	v := 0
	for _, c := range b[1 : 1+w] {
		v = v<<8 | int(c)
	}
	return v, 1 + w
}

// FuzzLoad: Load never panics or dies on a blob, and every model it
// accepts survives Save → Load with bit-equal parameters and normals.
func FuzzLoad(f *testing.F) {
	for _, cfg := range []Config{
		{EmbeddingDim: 2, Hidden: 3, Seed: 1},
		{EmbeddingDim: 1, Hidden: 2, Variant: VariantGCN, PlainSum: true, Seed: 2},
	} {
		m := NewModel(cfg)
		m.normals["frontend\x1fGET /\x1fserver"] = NormalStats{MedianDuration: 1200, MedianExclusiveDuration: 300, Count: 7}
		m.globalNormal = NormalStats{MedianDuration: 900, MedianExclusiveDuration: 250, Count: 7}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snapshot{Format: snapshotFormat, EmbeddingDim: 1 << 20, Hidden: 1 << 20}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("saving an accepted model: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading an accepted model: %v", err)
		}
		if back.cfg != m.cfg {
			t.Fatalf("config %+v reloads as %+v", m.cfg, back.cfg)
		}
		want, got := nn.StateDict(m), nn.StateDict(back)
		for name, vals := range want {
			if !sameBits(got[name], vals) {
				t.Fatalf("parameter %s changed in the round trip", name)
			}
		}
		if !sameNormal(back.globalNormal, m.globalNormal) || len(back.normals) != len(m.normals) {
			t.Fatalf("normals changed in the round trip")
		}
		for key, ns := range m.normals {
			if got, ok := back.normals[key]; !ok || !sameNormal(got, ns) {
				t.Fatalf("normal %q changed in the round trip", key)
			}
		}
	})
}

// sameBits reports whether a and b hold bit-identical floats (NaN ≡ NaN).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameNormal(a, b NormalStats) bool {
	return a.Count == b.Count &&
		sameBits([]float64{a.MedianDuration, a.MedianExclusiveDuration}, []float64{b.MedianDuration, b.MedianExclusiveDuration})
}
