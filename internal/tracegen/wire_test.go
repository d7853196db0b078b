package tracegen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rdramstream/internal/workload"
)

// writeTempTrace encodes accs as an NDJSON trace file under t.TempDir.
func writeTempTrace(t *testing.T, name string, accs []workload.TraceAccess) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := Encode(f, name, accs); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func TestWireRoundTrip(t *testing.T) {
	accs := []workload.TraceAccess{
		{Addr: 0}, {Addr: 16, Write: true}, {Addr: 1 << 40},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, "rt", accs); err != nil {
		t.Fatal(err)
	}
	h, got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Format != FormatV1 || h.Name != "rt" || h.Accesses != 3 {
		t.Errorf("header = %+v", h)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Errorf("round trip = %+v, want %+v", got, accs)
	}
}

// wireHeader declares two accesses; badBodies build on it.
const wireHeader = `{"format":"rdtrace/v1","accesses":2}`

// badBodies are malformed trace bodies and the exact error each must
// produce. They also seed FuzzDecode.
var badBodies = []struct {
	name, body, wantErr string
}{
	{"empty body", "", "tracegen: empty trace body (want a rdtrace/v1 header line)"},
	{"bad header json", "{", "tracegen: trace line 1: unexpected EOF"},
	{"unknown header field", `{"format":"rdtrace/v1","accesses":1,"zap":1}` + "\n" + `{"op":"R","addr":0}`,
		`tracegen: trace line 1: json: unknown field "zap"`},
	{"wrong format", `{"format":"rdtrace/v9","accesses":1}` + "\n" + `{"op":"R","addr":0}`,
		`tracegen: unknown trace format "rdtrace/v9" (want "rdtrace/v1")`},
	{"zero accesses", `{"format":"rdtrace/v1","accesses":0}`, "tracegen: header declares 0 accesses, want (0, 4194304]"},
	{"too many accesses", `{"format":"rdtrace/v1","accesses":99999999}`, "tracegen: header declares 99999999 accesses, want (0, 4194304]"},
	{"truncated", wireHeader + "\n" + `{"op":"R","addr":0}`, "tracegen: trace truncated: header declared 2 accesses, body ends after 1"},
	{"bad access json", wireHeader + "\n" + `{"op":"R","addr":0}` + "\nnope",
		"tracegen: trace line 3: invalid character 'o' in literal null (expecting 'u')"},
	{"unknown op", wireHeader + "\n" + `{"op":"Q","addr":0}`, `tracegen: trace line 2: unknown op "Q" (want R or W)`},
	{"negative addr", wireHeader + "\n" + `{"op":"R","addr":-4}`, "tracegen: trace line 2: negative address -4"},
	{"trailing token on line", wireHeader + "\n" + `{"op":"R","addr":0} {"x":1}`, "tracegen: trace line 2: trailing data after JSON value"},
	{"trailing garbage after count", wireHeader + "\n" + `{"op":"R","addr":0}` + "\n" + `{"op":"R","addr":4}` + "\n" + `{"op":"R","addr":8}`,
		`tracegen: trace line 4: trailing garbage after the 2 declared accesses: "{\"op\":\"R\",\"addr\":8}"`},
	{"leading zero", wireHeader + "\n" + `{"op":"R","addr":01}`,
		"tracegen: trace line 2: invalid character '1' after object key:value pair"},
	{"int64 overflow", wireHeader + "\n" + `{"op":"R","addr":9223372036854775808}`,
		"tracegen: trace line 2: json: cannot unmarshal number 9223372036854775808 into Go struct field Line.addr of type int64"},
	{"null op", wireHeader + "\n" + `{"op":null,"addr":1}`, `tracegen: trace line 2: unknown op "" (want R or W)`},
	{"exponent addr", wireHeader + "\n" + `{"op":"R","addr":1e2}`,
		"tracegen: trace line 2: json: cannot unmarshal number 1e2 into Go struct field Line.addr of type int64"},
}

func TestWireErrors(t *testing.T) {
	for _, c := range badBodies {
		_, _, err := Decode(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if err.Error() != c.wantErr {
			t.Errorf("%s: error\n  got  %q\n  want %q", c.name, err, c.wantErr)
		}
	}
}

// nonCanonicalLines are access lines encoding/json accepts that are not
// the bytes AppendLine writes: the fast path must decline every one, and
// the decoded access must still be the one encoding/json reads.
var nonCanonicalLines = []struct {
	line string
	want workload.TraceAccess
}{
	{`{"OP":"R","ADDR":1}`, workload.TraceAccess{Addr: 1}},
	{`{"op":"R","addr":-0}`, workload.TraceAccess{}},
	{`{"op":"\u0052","addr":5}`, workload.TraceAccess{Addr: 5}},
	{`{"op" : "W", "addr" : 7}`, workload.TraceAccess{Addr: 7, Write: true}},
	{`{"op":"R","op":"W","addr":1}`, workload.TraceAccess{Addr: 1, Write: true}},
	{`{"op":"R","addr":null}`, workload.TraceAccess{}},
	{`{"addr":3,"op":"R"}`, workload.TraceAccess{Addr: 3}},
}

func TestNonCanonicalLinesTakeTheJSONPath(t *testing.T) {
	for _, c := range nonCanonicalLines {
		if l, ok := canonicalLine([]byte(c.line)); ok {
			t.Errorf("%s: fast path accepted it as %+v", c.line, l)
		}
		_, got, err := Decode(strings.NewReader(`{"format":"rdtrace/v1","accesses":1}` + "\n" + c.line))
		if err != nil || len(got) != 1 || got[0] != c.want {
			t.Errorf("%s: decoded %+v, %v; want %+v", c.line, got, err, c.want)
		}
	}
}

// AppendLine must write exactly what json.Marshal writes for the Line,
// at the int64 extremes too.
func TestAppendLineMatchesJSON(t *testing.T) {
	for _, a := range []workload.TraceAccess{
		{}, {Addr: 7, Write: true}, {Addr: 1 << 40}, {Addr: math.MaxInt64, Write: true}, {Addr: -4}, {Addr: math.MinInt64},
	} {
		op := "R"
		if a.Write {
			op = "W"
		}
		want, err := json.Marshal(Line{Op: op, Addr: a.Addr})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendLine(nil, a); string(got) != string(want)+"\n" {
			t.Errorf("AppendLine(%+v) = %q, want %q", a, got, string(want)+"\n")
		}
	}
}

// lineFourBody fails on its fourth line.
const lineFourBody = `{"format":"rdtrace/v1","accesses":3}
{"op":"R","addr":0}
{"op":"R","addr":4}
{"op":"X","addr":8}`

// Errors must carry the offending line number so a multi-megabyte POST
// is debuggable.
func TestWireErrorsNameTheLine(t *testing.T) {
	_, _, err := Decode(strings.NewReader(lineFourBody))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %v does not name line 4", err)
	}
}

// A header may declare up to MaxAccesses, but the decoder must size its
// buffers by the body that actually arrives: a 63-byte body declaring
// 4Mi accesses must not allocate for 4Mi.
func TestDecodeTruncatedHeaderAllocatesLittle(t *testing.T) {
	body := `{"format":"rdtrace/v1","accesses":4194304}` + "\n" + `{"op":"R","addr":0}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error %v does not report truncation", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding a %d-byte body allocated %d bytes, want < 1 MiB", len(body), alloc)
	}
}

// FuzzDecode drives the rdtrace/v1 decoder — the body of POST
// /v1/trace — with arbitrary input. It must never panic; anything it
// accepts has exactly the declared count of non-negative addresses and
// survives an Encode/Decode round trip unchanged. Every line of the
// input also checks the fast path against encoding/json: canonicalLine
// either declines a line or returns exactly the Line decodeLine returns.
func FuzzDecode(f *testing.F) {
	var good bytes.Buffer
	if err := Encode(&good, "seed", []workload.TraceAccess{{Addr: 0}, {Addr: 16, Write: true}, {Addr: 1 << 40}}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add(lineFourBody)
	for _, c := range badBodies {
		f.Add(c.body)
	}
	for _, c := range nonCanonicalLines {
		f.Add(`{"format":"rdtrace/v1","accesses":1}` + "\n" + c.line)
	}
	f.Add(`{"op":"W","addr":9223372036854775807}`)
	f.Fuzz(func(t *testing.T, body string) {
		for _, ln := range strings.Split(body, "\n") {
			b := bytes.TrimSpace([]byte(ln))
			fast, ok := canonicalLine(b)
			if !ok {
				continue
			}
			var slow Line
			if err := decodeLine(b, 1, &slow); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", b, err)
			}
			if fast != slow {
				t.Fatalf("fast path read %q as %+v, encoding/json as %+v", b, fast, slow)
			}
		}
		h, accs, err := Decode(strings.NewReader(body))
		if err != nil {
			return
		}
		if len(accs) != h.Accesses {
			t.Fatalf("decoded %d accesses, header declares %d", len(accs), h.Accesses)
		}
		for i, a := range accs {
			if a.Addr < 0 {
				t.Fatalf("access %d has negative address %d", i, a.Addr)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, h.Name, accs); err != nil {
			t.Fatal(err)
		}
		_, again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decoding the encoded trace: %v", err)
		}
		if !reflect.DeepEqual(again, accs) {
			t.Fatalf("round trip = %+v, want %+v", again, accs)
		}
	})
}

// kvBody is the seeded 8192-access llm-kvcache trace the codec gates and
// benchmarks run on, with its rdtrace/v1 encoding.
func kvBody(tb testing.TB) ([]workload.TraceAccess, []byte) {
	tb.Helper()
	p, err := ParseProgram("llm-kvcache:n=8192,ctxrows=32", 1)
	if err != nil {
		tb.Fatal(err)
	}
	accs, err := p.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, p.Name, accs); err != nil {
		tb.Fatal(err)
	}
	return accs, buf.Bytes()
}

// The codec's allocation budget is per trace, not per access: decoding
// the 8192-access body allocates the scanner buffer, the access slice
// and the header's JSON decode, and no line allocates on its own.
func TestDecodeAllocs(t *testing.T) {
	accs, body := kvBody(t)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		var got []workload.TraceAccess
		_, got, err = Decode(bytes.NewReader(body))
		if err == nil && len(got) != len(accs) {
			err = fmt.Errorf("decoded %d accesses, want %d", len(got), len(accs))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 32 {
		t.Errorf("decoding %d accesses allocated %.0f times, want <= 32", len(accs), allocs)
	}
}

func TestEncodeAllocs(t *testing.T) {
	accs, body := kvBody(t)
	var buf bytes.Buffer
	buf.Grow(len(body))
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		err = Encode(&buf, "kv", accs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 8 {
		t.Errorf("encoding %d accesses allocated %.0f times, want <= 8", len(accs), allocs)
	}
}

func BenchmarkDecode(b *testing.B) {
	accs, body := kvBody(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
}

func BenchmarkEncode(b *testing.B) {
	accs, body := kvBody(b)
	var buf bytes.Buffer
	buf.Grow(len(body))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, "kv", accs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(accs)), "ns/access")
}

func TestSpecFromArg(t *testing.T) {
	spec, name, err := SpecFromArg("strided:n=32", 9)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Program == nil || spec.Program.Seed != 9 || name != "strided:n=32" {
		t.Errorf("spec = %+v, name = %q", spec, name)
	}

	prog := mustProgram(t, "chase:n=16,footprint=4096", 2)
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	f, err := writeTempTrace(t, prog.Name, accs)
	if err != nil {
		t.Fatal(err)
	}
	fileSpec, fileName, err := SpecFromArg("@"+f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fileName != prog.Name {
		t.Errorf("file spec name = %q, want %q", fileName, prog.Name)
	}
	if !reflect.DeepEqual(fileSpec.Accesses, accs) {
		t.Error("file spec accesses differ from the encoded trace")
	}
	if _, _, err := SpecFromArg("@/nonexistent/trace.ndjson", 0); err == nil {
		t.Error("expected error for a missing trace file")
	}
}
