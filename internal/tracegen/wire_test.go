package tracegen

import (
	"bytes"
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

// badBodies are malformed trace bodies and the error text each must
// produce. They also seed FuzzDecode.
var badBodies = []struct {
	name, body, wantErr string
}{
	{"empty body", "", "empty trace body"},
	{"bad header json", "{", "line 1"},
	{"unknown header field", `{"format":"rdtrace/v1","accesses":1,"zap":1}` + "\n" + `{"op":"R","addr":0}`, "zap"},
	{"wrong format", `{"format":"rdtrace/v9","accesses":1}` + "\n" + `{"op":"R","addr":0}`, "unknown trace format"},
	{"zero accesses", `{"format":"rdtrace/v1","accesses":0}`, "declares 0"},
	{"too many accesses", `{"format":"rdtrace/v1","accesses":99999999}`, "declares 99999999"},
	{"truncated", wireHeader + "\n" + `{"op":"R","addr":0}`, "truncated"},
	{"bad access json", wireHeader + "\n" + `{"op":"R","addr":0}` + "\nnope", "line 3"},
	{"unknown op", wireHeader + "\n" + `{"op":"Q","addr":0}`, `unknown op "Q"`},
	{"negative addr", wireHeader + "\n" + `{"op":"R","addr":-4}`, "negative address"},
	{"trailing token on line", wireHeader + "\n" + `{"op":"R","addr":0} {"x":1}`, "trailing data"},
	{"trailing garbage after count", wireHeader + "\n" + `{"op":"R","addr":0}` + "\n" + `{"op":"R","addr":4}` + "\n" + `{"op":"R","addr":8}`, "trailing garbage"},
}

func TestWireErrors(t *testing.T) {
	for _, c := range badBodies {
		_, _, err := Decode(strings.NewReader(c.body))
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
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
// survives an Encode/Decode round trip unchanged.
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
	f.Fuzz(func(t *testing.T, body string) {
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
