package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/resultcache"
	"rdramstream/internal/sim"
	"rdramstream/internal/tracegen"
)

// wireScenarios are the shapes perfbench's serve-rw sends — the reader's
// hot set (four kernels under CLI and PI, "smc", N 1024, seeded) and the
// writer's cold misses (N 8192, natural order and SMC, SkipVerify, fresh
// seeds) — plus the package's test scenario and a spelled-out device.
func wireScenarios() []sim.Scenario {
	var scs []sim.Scenario
	kernels := []string{"copy", "daxpy", "hydro", "vaxpy"}
	for i := 0; i < 8; i++ {
		scs = append(scs, sim.Scenario{
			KernelName: kernels[i%4], N: 1024, Scheme: addrmap.Scheme(i / 4),
			Controller: "smc", Seed: 0x5e7e<<20 + int64(i)*7919,
		})
	}
	for _, k := range kernels {
		for _, s := range []addrmap.Scheme{addrmap.CLI, addrmap.PI} {
			for j, c := range []string{"natural-order", "smc"} {
				scs = append(scs, sim.Scenario{KernelName: k, N: 8192, Scheme: s, Controller: c, SkipVerify: true, Seed: 1<<40 + int64(j)})
			}
		}
	}
	dev := scenario(256)
	dev.Device = rdram.DefaultConfig()
	dev.Device.RefreshInterval = 1 << 20
	dev.WatchdogLimit = 1 << 40
	dev.Seed = -1 << 63
	return append(scs, scenario(256), dev, sim.Scenario{KernelName: "made-up", Controller: "elsewhere", N: -3})
}

func strictScenario(b []byte) (sim.Scenario, error) {
	var sc sim.Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sc)
	return sc, err
}

func strictResponse(b []byte) (SimulateResponse, error) {
	var out SimulateResponse
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&out)
	return out, err
}

// hitBodies returns the bodies the server answers with: a miss and a
// hit of each scenario on /v1/simulate, and a miss and a hit on
// /v1/trace.
func hitBodies(t *testing.T, scs []sim.Scenario) [][]byte {
	t.Helper()
	h := NewHandler(newService(t, Config{Workers: 1}))
	post := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	var bodies [][]byte
	for _, sc := range scs {
		body, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, post("/v1/simulate", body), post("/v1/simulate", body))
	}
	prog, err := tracegen.ParseProgram("llm-kvcache:n=512,ctxrows=4", 3)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := prog.Generate()
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(TraceHeader{Format: tracegen.FormatV1, Name: "kv", Accesses: len(accs), Scenario: sim.Scenario{Scheme: addrmap.PI, Controller: "smc"}})
	if err != nil {
		t.Fatal(err)
	}
	trace := append(hdr, '\n')
	for _, a := range accs {
		trace = tracegen.AppendLine(trace, a)
	}
	return append(bodies, post("/v1/trace", trace), post("/v1/trace", trace))
}

// The bodies of the hit path — every scenario shape serve-rw sends and
// every body the server answers /v1/simulate and /v1/trace with — take
// the reader, not encoding/json, and decode as strict encoding/json
// decodes them. A change to either shape that silently sent them back
// to encoding/json fails here.
func TestWireReaderTakesTheHitPath(t *testing.T) {
	scs := wireScenarios()
	for _, sc := range scs {
		body, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		var got sim.Scenario
		if !readScenario(body, &got) {
			t.Fatalf("the reader refused the client's body %s", body)
		}
		want, err := strictScenario(body)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reader and encoding/json disagree on %s:\nreader: %+v\njson:   %+v (%v)", body, got, want, err)
		}
	}
	bodies := hitBodies(t, scs[:len(scs)-1])
	cached := 0
	for _, body := range bodies {
		var got SimulateResponse
		if !readResponse(body, &got) {
			t.Fatalf("the reader refused the server's body %s", body)
		}
		want, err := strictResponse(body)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("reader and encoding/json disagree on %s:\nreader: %+v\njson:   %+v (%v)", body, got, want, err)
		}
		if got.Cached {
			cached++
		}
	}
	if cached != len(bodies)/2 {
		t.Fatalf("%d of %d bodies were hits, want half", cached, len(bodies))
	}
}

// Bodies outside the two shapes go to encoding/json, with its result
// and its error: the reader refuses each of these, and decodeScenario
// and DecodeResponse then return exactly what encoding/json does.
func TestWireReaderFallsBack(t *testing.T) {
	client, err := json.Marshal(scenario(256))
	if err != nil {
		t.Fatal(err)
	}
	c := string(client)
	padded := c + strings.Repeat(" ", maxWireBody)
	for name, body := range map[string]string{
		"case-folded key":  strings.Replace(c, `"KernelName"`, `"kernelname"`, 1),
		"reordered":        `{"N":256,` + strings.Replace(c[1:], `"N":256,`, "", 1),
		"missing field":    strings.Replace(c, `"Seed":0,`, "", 1),
		"extra field":      strings.Replace(c, `"Seed":0,`, `"Seed":0,"Typo":1,`, 1),
		"workload":         strings.Replace(c, `"SkipVerify":false}`, `"SkipVerify":false,"Workload":null}`, 1),
		"cache set":        strings.Replace(c, `"Cache":null`, `"Cache":{}`, 1),
		"escaped string":   strings.Replace(c, `"daxpy"`, `"dax\u0070y"`, 1),
		"float int":        strings.Replace(c, `"N":256`, `"N":256.0`, 1),
		"exponent int":     strings.Replace(c, `"N":256`, `"N":2.56e2`, 1),
		"leading zero":     strings.Replace(c, `"N":256`, `"N":0256`, 1),
		"overflow":         strings.Replace(c, `"Seed":0`, `"Seed":9223372036854775808`, 1),
		"trailing value":   c + ` {}`,
		"trailing garbage": c + `x`,
		"truncated":        c[:len(c)-1],
		"not an object":    `[1,2]`,
		"empty":            ``,
		"over the buffer":  padded,
		"over, truncated":  padded[:len(padded)-maxWireBody/2] + `{`,
	} {
		// A body longer than the buffer goes to encoding/json unread.
		var got sim.Scenario
		if len(body) < maxWireBody && readScenario([]byte(body), &got) {
			t.Errorf("%s: the reader accepted %.80q", name, body)
			continue
		}
		got = sim.Scenario{}
		gotErr := decodeScenario(httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)), &got)
		want, wantErr := strictScenario([]byte(body))
		if wantErr != nil {
			wantErr = fmt.Errorf("decoding request body: %w", wantErr)
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeScenario = %+v, %v; encoding/json = %+v, %v", name, got, gotErr, want, wantErr)
		}
	}

	out, err := sim.Run(scenario(64))
	if err != nil {
		t.Fatal(err)
	}
	env := string(resultcache.Envelope(nil).Str("job_id", "job-000001").Bool("cached", true).Str("key", "k").Outcome(resultcache.Encode(out).JSON))
	for name, body := range map[string]string{
		"unknown field":  strings.Replace(env, `"cached"`, `"extra": 1, "cached"`, 1),
		"short stalls":   strings.Replace(env, "[\n        0,", "[", 1),
		"escaped key":    strings.Replace(env, `"key": "k"`, `"key": "\u006b"`, 1),
		"float overflow": strings.Replace(env, `"CacheHitRate": 0`, `"CacheHitRate": 1e400`, 1),
		"truncated":      env[:len(env)-3],
		"error body":     `{"error": "service: queue full"}`,
	} {
		var got SimulateResponse
		if readResponse([]byte(body), &got) {
			t.Errorf("%s: the reader accepted %.80q", name, body)
			continue
		}
		got = SimulateResponse{}
		gotErr := DecodeResponse(strings.NewReader(body), &got)
		var want SimulateResponse
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeResponse = %+v, %v; encoding/json = %+v, %v", name, got, gotErr, want, wantErr)
		}
	}
}

// A read error mid-body reaches encoding/json after the bytes read
// before it, as it did when encoding/json read the body itself.
func TestWireReaderKeepsReadErrors(t *testing.T) {
	boom := errors.New("connection reset")
	r := &failingReader{data: []byte(`{"KernelName":"daxpy",`), err: boom}
	var sc sim.Scenario
	err := decodeScenario(httptest.NewRequest(http.MethodPost, "/v1/simulate", r), &sc)
	if !errors.Is(err, boom) || err.Error() != "decoding request body: connection reset" {
		t.Fatalf("err = %v, want the read error", err)
	}
}

type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// Malformed and invalid /v1/simulate bodies get the error bodies they
// got when encoding/json decoded every request: the strict decoder's
// error, or the submission's, in the one error shape.
func TestMalformedBodiesKeepTheirErrors(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	h := NewHandler(svc)
	good, err := json.Marshal(scenario(64))
	if err != nil {
		t.Fatal(err)
	}
	g := string(good)
	for _, body := range []string{
		`{`, ``, `null x`, `{"KernelName":"daxpy","Typo":1}`, `{"KernelName": "nope"}`,
		`{"N":"64"}`, `{"N":1.5}`, `{"N":99999999999999999999}`,
		strings.Replace(g, `"N":64`, `"N":-1`, 1),
		strings.Replace(g, `"daxpy"`, `"nope"`, 1),
		strings.Replace(g, `"Controller":""`, `"Controller":"nope"`, 1),
		strings.Replace(g, `"TPack":0`, `"TPack":-1`, 1),
		strings.Replace(g, `"Banks":0`, `"Banks":16`, 1),
		strings.Replace(g, `"RefreshInterval":0`, `"RefreshInterval":5000`, 1),
		g[:len(g)-2] + strings.Repeat(" ", maxWireBody),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		var wantErr error
		sc, err := strictScenario([]byte(body))
		if err != nil {
			wantErr = fmt.Errorf("decoding request body: %w", err)
		} else if _, err := svc.SubmitOne(context.Background(), sc); err != nil {
			wantErr = err
		} else {
			t.Fatalf("%q: a valid body in the malformed list", body)
		}
		want := httptest.NewRecorder()
		WriteError(want, http.StatusBadRequest, wantErr)
		if rec.Code != http.StatusBadRequest || !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%.80q: status %d body %s, want 400 %s", body, rec.Code, rec.Body.Bytes(), want.Body.Bytes())
		}
	}
}

// A scenario whose Device sets only part of the part is refused with
// 400 and sim.ErrPartialDevice's text, not run as the default part.
func TestPartialDeviceIs400(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	h := NewHandler(svc)
	sc := scenario(64)
	sc.Device.Geometry.Banks = 16
	if _, err := svc.SubmitOne(context.Background(), sc); !errors.Is(err, sim.ErrPartialDevice) {
		t.Fatalf("SubmitOne = %v, want sim.ErrPartialDevice", err)
	}
	body, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), sim.ErrPartialDevice.Error()) {
		t.Errorf("status %d body %s, want 400 naming %q", rec.Code, rec.Body.Bytes(), sim.ErrPartialDevice)
	}
}

// FuzzWireReader holds the reader to encoding/json: whenever it accepts
// a body, as a scenario or as a response, strict encoding/json accepts
// the same bytes and decodes an equal value.
func FuzzWireReader(f *testing.F) {
	for _, sc := range wireScenarios() {
		body, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		indented, err := json.MarshalIndent(sc, "", " ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(indented)
	}
	for _, n := range []int{64, 96} {
		out, err := sim.Run(scenario(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(resultcache.Envelope(nil).Str("job_id", "job-000042").Bool("cached", n == 64).
			Str("key", strings.Repeat("ab", 32)).Outcome(resultcache.Encode(out).JSON))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var sc sim.Scenario
		if readScenario(body, &sc) {
			want, err := strictScenario(body)
			if err != nil {
				t.Fatalf("reader accepted a scenario encoding/json refuses (%v): %q", err, body)
			}
			if !reflect.DeepEqual(sc, want) {
				t.Fatalf("scenario differs: reader %+v, json %+v: %q", sc, want, body)
			}
		}
		var resp SimulateResponse
		if readResponse(body, &resp) {
			want, err := strictResponse(body)
			if err != nil {
				t.Fatalf("reader accepted a response encoding/json refuses (%v): %q", err, body)
			}
			if !reflect.DeepEqual(resp, want) {
				t.Fatalf("response differs: reader %+v, json %+v: %q", resp, want, body)
			}
		}
	})
}
