package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"rdramstream/internal/addrmap"
	"rdramstream/internal/rdram"
	"rdramstream/internal/sim"
	"rdramstream/internal/smc"
	"rdramstream/internal/stream"
)

// The hit path's JSON reader. A POST /v1/simulate body from the Go
// client and the body the server answers it with have one shape each:
// every field present, in declaration order, with exact key spellings.
// The reader parses those two shapes in place, without reflection or
// allocation, and gives every other body, byte for byte, to
// encoding/json: DecodeStrict for requests, a json.Decoder for
// responses. Strictness and error texts are therefore those of
// encoding/json, and whenever the reader accepts a body, strict
// encoding/json accepts the same bytes and decodes an equal value
// (FuzzWireReader). It is the pattern of tracegen's rdtrace/v1 access
// lines, applied to whole bodies.
//
// Accepted shapes:
//
//   - a sim.Scenario as json.Marshal writes it with Cache and Fault nil
//     and Workload nil (so absent): the fields in declaration order,
//     Cache and Fault null;
//   - a SimulateResponse as the server writes it (an Envelope around
//     resultcache.Encode's outcome): job_id, cached, key, outcome, with
//     the outcome's fields in declaration order and exactly
//     telemetry.NumStallCauses stall counts.
//
// Between tokens any JSON whitespace is allowed. Strings must be
// printable ASCII without escapes; integers must be plain decimals that
// fit the field; floats must be JSON numbers that strconv parses; after
// the object only whitespace may follow. Anything else — another key
// order, a missing or extra field, an escape, a non-null Cache or
// Fault, a present Workload — falls back.

// maxWireBody bounds the bodies the reader takes: the two shapes are
// about 0.5 and 1 KB. A longer body goes to encoding/json.
const maxWireBody = 8 << 10

// bodyBufs recycles the buffers bodies are read into; every buffer is
// maxWireBody bytes, so the pool holds nothing larger.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, maxWireBody); return &b }}

// readBody reads r to its end into buf. When the body fits, it returns
// the body and a nil rest. Otherwise it returns what it read and rest,
// which yields what r would have yielded next, its error included: the
// bytes and then rest are exactly r's stream.
func readBody(r io.Reader, buf []byte) (body []byte, rest io.Reader) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return buf[:n], nil
		}
		if err != nil {
			return buf[:n], errReader{err}
		}
	}
	return buf[:n], r
}

// errReader replays a read error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeScenario decodes a POST /v1/simulate body into sc: the reader
// for the Go client's shape, DecodeStrict for every other body.
func decodeScenario(r *http.Request, sc *sim.Scenario) error {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	body, rest := readBody(r.Body, *bp)
	if rest == nil {
		if readScenario(body, sc) {
			return nil
		}
		rest = bytes.NewReader(nil)
	}
	// A variable of its own: handing sc to encoding/json would move the
	// caller's scenario to the heap on the fast path too.
	slow := new(sim.Scenario)
	err := decodeStrict(io.MultiReader(bytes.NewReader(body), rest), slow)
	*sc = *slow
	return err
}

// DecodeResponse decodes a POST /v1/simulate or /v1/trace response body
// into out: the reader for the server's envelope, a json.Decoder for
// every other body.
func DecodeResponse(r io.Reader, out *SimulateResponse) error {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	body, rest := readBody(r, *bp)
	if rest == nil {
		if readResponse(body, out) {
			return nil
		}
		rest = bytes.NewReader(nil)
	}
	slow := new(SimulateResponse) // as in decodeScenario
	err := json.NewDecoder(io.MultiReader(bytes.NewReader(body), rest)).Decode(slow)
	*out = *slow
	return err
}

// decodeStrict decodes one JSON value from r, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

// readScenario parses b when it has the Go client's shape and reports
// whether it did; on false, sc is partly written and must be discarded.
func readScenario(b []byte, sc *sim.Scenario) bool {
	r := wireReader{b: b, ok: true}
	r.begin()
	sc.KernelName = r.name("KernelName")
	sc.N = r.int("N")
	sc.Stride = r.int64("Stride")
	sc.Scheme = addrmap.Scheme(r.int("Scheme"))
	sc.Placement = stream.Placement(r.int("Placement"))
	sc.Mode = sim.Mode(r.int("Mode"))
	sc.Controller = r.name("Controller")
	sc.LineWords = r.int("LineWords")
	sc.FIFODepth = r.int("FIFODepth")
	sc.Policy = smc.Policy(r.int("Policy"))
	sc.SpeculateActivate = r.bool("SpeculateActivate")
	sc.WriteAllocate = r.bool("WriteAllocate")
	r.null("Cache")
	sc.Cache = nil
	r.field("Device")
	readDevice(&r, &sc.Device)
	r.null("Fault")
	sc.Fault = nil
	sc.WatchdogLimit = r.int64("WatchdogLimit")
	sc.Seed = r.int64("Seed")
	sc.SkipVerify = r.bool("SkipVerify")
	r.end()
	sc.Workload, sc.Telemetry, sc.Trace = nil, nil, nil
	return r.done()
}

// readDevice parses an rdram.Config object.
func readDevice(r *wireReader, d *rdram.Config) {
	r.begin()
	r.field("Timing")
	r.begin()
	t := &d.Timing
	t.TPack = r.int("TPack")
	t.TRCD = r.int("TRCD")
	t.TRP = r.int("TRP")
	t.TCPOL = r.int("TCPOL")
	t.TCAC = r.int("TCAC")
	t.TRC = r.int("TRC")
	t.TRR = r.int("TRR")
	t.TRDLY = r.int("TRDLY")
	t.TRW = r.int("TRW")
	t.TCWD = r.int("TCWD")
	r.end()
	r.field("Geometry")
	r.begin()
	g := &d.Geometry
	g.Banks = r.int("Banks")
	g.PageWords = r.int("PageWords")
	g.PagesPerBank = r.int("PagesPerBank")
	g.DoubleBank = r.bool("DoubleBank")
	g.DevicesOnChannel = r.int("DevicesOnChannel")
	r.end()
	d.RefreshInterval = r.int64("RefreshInterval")
	r.end()
}

// readResponse parses b when it has the server's envelope shape and
// reports whether it did; on false, out is partly written and must be
// discarded.
func readResponse(b []byte, out *SimulateResponse) bool {
	r := wireReader{b: b, ok: true}
	r.begin()
	jobID := r.str("job_id")
	out.Cached = r.bool("cached")
	key := r.str("key")
	r.field("outcome")
	r.begin()
	o := &out.Outcome
	o.Cycles = r.int64("Cycles")
	o.UsefulWords = r.int64("UsefulWords")
	o.TransferredWords = r.int64("TransferredWords")
	o.PercentPeak = r.float("PercentPeak")
	o.PercentAttainable = r.float("PercentAttainable")
	o.EffectiveMBps = r.float("EffectiveMBps")
	o.CPUStallCycles = r.int64("CPUStallCycles")
	r.field("Device")
	r.begin()
	st := &o.Device
	st.Activates = r.int64("Activates")
	st.Precharges = r.int64("Precharges")
	st.Reads = r.int64("Reads")
	st.Writes = r.int64("Writes")
	st.PageHits = r.int64("PageHits")
	st.PageMisses = r.int64("PageMisses")
	st.PageConflicts = r.int64("PageConflicts")
	st.Retires = r.int64("Retires")
	st.Refreshes = r.int64("Refreshes")
	st.DataBusBusy = r.int64("DataBusBusy")
	st.LastDataEnd = r.int64("LastDataEnd")
	st.Rejections = r.int64("Rejections")
	st.JitterCycles = r.int64("JitterCycles")
	r.field("Stalls")
	r.token('[')
	for c := range st.Stalls {
		if c > 0 {
			r.token(',')
		}
		st.Stalls[c] = r.num64()
	}
	r.token(']')
	r.end()
	o.CacheHitRate = r.float("CacheHitRate")
	o.DirtyWritebacks = r.int64("DirtyWritebacks")
	o.Verified = r.bool("Verified")
	r.end()
	r.end()
	if !r.done() {
		return false
	}
	// The two strings are copied out only once the whole body parsed.
	out.JobID, out.Key = string(jobID), string(key)
	return true
}

// wireReader walks one fixed-shape JSON object. Every method is a no-op
// once a mismatch cleared ok, so a parse is straight-line code that
// checks ok once, in done.
type wireReader struct {
	b     []byte
	ok    bool
	first bool // the next field is the first of its object
}

// ws skips JSON whitespace.
func (r *wireReader) ws() {
	for len(r.b) > 0 {
		switch r.b[0] {
		case ' ', '\t', '\n', '\r':
			r.b = r.b[1:]
		default:
			return
		}
	}
}

// token consumes one structural byte.
func (r *wireReader) token(c byte) {
	r.ws()
	if !r.ok || len(r.b) == 0 || r.b[0] != c {
		r.ok = false
		return
	}
	r.b = r.b[1:]
}

// begin opens an object.
func (r *wireReader) begin() {
	r.token('{')
	r.first = true
}

// end closes an object.
func (r *wireReader) end() {
	r.token('}')
	r.first = false
}

// field consumes the separator, the key name and the colon of the next
// field, which must be name.
func (r *wireReader) field(name string) {
	if !r.first {
		r.token(',')
	}
	r.first = false
	r.token('"')
	if !r.ok || len(r.b) < len(name)+1 || string(r.b[:len(name)]) != name || r.b[len(name)] != '"' {
		r.ok = false
		return
	}
	r.b = r.b[len(name)+1:]
	r.token(':')
}

// done reports whether the parse matched and only whitespace is left.
func (r *wireReader) done() bool {
	r.ws()
	return r.ok && len(r.b) == 0
}

// literal consumes the literal lit, after whitespace.
func (r *wireReader) literal(lit string) bool {
	r.ws()
	if !r.ok || len(r.b) < len(lit) || string(r.b[:len(lit)]) != lit {
		return false
	}
	r.b = r.b[len(lit):]
	return true
}

func (r *wireReader) null(name string) {
	r.field(name)
	if !r.literal("null") {
		r.ok = false
	}
}

func (r *wireReader) bool(name string) bool {
	r.field(name)
	switch {
	case r.literal("true"):
		return true
	case r.literal("false"):
		return false
	}
	r.ok = false
	return false
}

// str reads a string field's bytes: printable ASCII other than the
// quote and the backslash, so the bytes are the value.
func (r *wireReader) str(name string) []byte {
	r.field(name)
	r.token('"')
	if !r.ok {
		return nil
	}
	for i, c := range r.b {
		switch {
		case c == '"':
			s := r.b[:i]
			r.b = r.b[i+1:]
			return s
		case c < 0x20 || c >= 0x7f || c == '\\':
			r.ok = false
			return nil
		}
	}
	r.ok = false
	return nil
}

// name reads a string field into one of the names the repository
// spells, without allocating, or into a new string otherwise.
func (r *wireReader) name(field string) string {
	s := r.str(field)
	if !r.ok {
		return ""
	}
	for _, n := range controllerNames {
		if string(s) == n {
			return n
		}
	}
	for _, f := range stream.Benchmarks {
		if string(s) == f.Name {
			return f.Name
		}
	}
	return string(s)
}

// controllerNames are the registered controllers' names and the empty
// string, which the reader returns without allocating.
var controllerNames = [...]string{"", "natural-order", "smc", "conventional"}

// number consumes a JSON number and returns its bytes; integer reports
// whether it has neither fraction nor exponent.
func (r *wireReader) number() (lit []byte, integer bool) {
	r.ws()
	if !r.ok {
		return nil, false
	}
	b, i := r.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		r.ok = false
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		integer = false
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			r.ok = false
			return nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integer = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			r.ok = false
			return nil, false
		}
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	r.b = b[i:]
	return b[:i], integer
}

// num64 reads an integer that fits an int64, as encoding/json's
// strconv.ParseInt does.
func (r *wireReader) num64() int64 {
	lit, integer := r.number()
	if !r.ok || !integer {
		r.ok = false
		return 0
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	// 19 digits always fit a uint64; the int64 bounds are checked after.
	if len(lit) > 19 {
		r.ok = false
		return 0
	}
	var v uint64
	for _, c := range lit {
		v = v*10 + uint64(c-'0')
	}
	switch {
	case neg && v <= 1<<63:
		return -int64(v)
	case !neg && v < 1<<63:
		return int64(v)
	}
	r.ok = false
	return 0
}

func (r *wireReader) int64(name string) int64 {
	r.field(name)
	return r.num64()
}

// int reads an int field; a value that overflows int falls back, as it
// fails encoding/json.
func (r *wireReader) int(name string) int {
	v := r.int64(name)
	if int64(int(v)) != v {
		r.ok = false
	}
	return int(v)
}

// float reads a float64 field as encoding/json does: the JSON number's
// bytes through strconv.ParseFloat.
func (r *wireReader) float(name string) float64 {
	r.field(name)
	lit, _ := r.number()
	if !r.ok {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.ok = false
		return 0
	}
	return v
}
