package tracegen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"rdramstream/internal/workload"
)

// FormatV1 is the NDJSON trace wire format identifier: one JSON header
// line declaring the access count, then exactly that many access lines.
const FormatV1 = "rdtrace/v1"

// Header is the first NDJSON line of a trace file. POST /v1/trace uses
// its own header (service.TraceHeader) that adds the scenario; both
// decode through Decoder.DecodeHeader.
//
// rdlint:wire — trace file/stream wire format.
type Header struct {
	// Format must be FormatV1.
	Format string `json:"format"`
	// Name labels the trace (the generating program's name, usually).
	Name string `json:"name,omitempty"`
	// Accesses is the exact number of access lines that follow.
	Accesses int `json:"accesses"`
}

// Line is one access line of the NDJSON trace body.
//
// rdlint:wire — trace file/stream wire format.
type Line struct {
	// Op is "R" or "W".
	Op string `json:"op"`
	// Addr is the 64-bit-word address.
	Addr int64 `json:"addr"`
}

// Encode writes the NDJSON trace: header line, then one Line per
// access. The encoding is deterministic — fixed field order, no
// timestamps — so the same trace always encodes to the same bytes.
func Encode(w io.Writer, name string, accs []workload.TraceAccess) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(Header{Format: FormatV1, Name: name, Accesses: len(accs)})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for _, a := range accs {
		op := "R"
		if a.Write {
			op = "W"
		}
		ln, err := json.Marshal(Line{Op: op, Addr: a.Addr})
		if err != nil {
			return err
		}
		bw.Write(ln)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// maxWireLine bounds one NDJSON line; a well-formed header or access
// line is tens of bytes, so 1 MiB leaves room for scenario-carrying
// headers while refusing pathological input.
const maxWireLine = 1 << 20

// Decoder reads the NDJSON trace wire format with line-accurate
// errors: first DecodeHeader into the caller's header shape, then
// ReadAccesses for exactly the declared count. Unknown fields, trailing
// tokens on a line, and trailing lines after the declared count are all
// rejected — a trace that decodes is exactly the trace that was sent.
type Decoder struct {
	sc   *bufio.Scanner
	line int
}

// NewDecoder wraps a trace body.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxWireLine)
	return &Decoder{sc: sc}
}

// next returns the next non-empty line, its number, and whether one
// exists. Scanner errors surface with the line reached.
func (d *Decoder) next() ([]byte, int, bool, error) {
	for d.sc.Scan() {
		d.line++
		b := bytes.TrimSpace(d.sc.Bytes())
		if len(b) > 0 {
			return b, d.line, true, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return nil, d.line, false, fmt.Errorf("tracegen: trace line %d: %w", d.line+1, err)
	}
	return nil, d.line, false, nil
}

// decodeLine strict-decodes one JSON line into v: unknown fields and
// trailing tokens on the line both fail.
func decodeLine(b []byte, line int, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("tracegen: trace line %d: %w", line, err)
	}
	if dec.More() {
		return fmt.Errorf("tracegen: trace line %d: trailing data after JSON value", line)
	}
	return nil
}

// DecodeHeader strict-decodes the first line into v — a *Header for
// trace files, or any header shape sharing its fields (the service's
// scenario-carrying header).
func (d *Decoder) DecodeHeader(v any) error {
	b, line, ok, err := d.next()
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("tracegen: empty trace body (want a %s header line)", FormatV1)
	}
	return decodeLine(b, line, v)
}

// ReadAccesses reads exactly want access lines and then requires EOF:
// fewer lines, malformed lines, unknown ops, negative addresses, and
// trailing garbage after the declared count are all errors naming the
// offending line.
func (d *Decoder) ReadAccesses(want int) ([]workload.TraceAccess, error) {
	if want <= 0 || want > MaxAccesses {
		return nil, fmt.Errorf("tracegen: header declares %d accesses, want (0, %d]", want, MaxAccesses)
	}
	// The header is untrusted: size the slice by the lines that arrive,
	// not by the count it declares.
	out := make([]workload.TraceAccess, 0, min(want, 1<<14))
	for len(out) < want {
		b, line, ok, err := d.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("tracegen: trace truncated: header declared %d accesses, body ends after %d", want, len(out))
		}
		var l Line
		if err := decodeLine(b, line, &l); err != nil {
			return nil, err
		}
		var write bool
		switch l.Op {
		case "R":
		case "W":
			write = true
		default:
			return nil, fmt.Errorf("tracegen: trace line %d: unknown op %q (want R or W)", line, l.Op)
		}
		if l.Addr < 0 {
			return nil, fmt.Errorf("tracegen: trace line %d: negative address %d", line, l.Addr)
		}
		out = append(out, workload.TraceAccess{Addr: l.Addr, Write: write})
	}
	if b, line, ok, err := d.next(); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("tracegen: trace line %d: trailing garbage after the %d declared accesses: %q", line, want, truncate(b, 40))
	}
	return out, nil
}

// Decode reads a complete FormatV1 trace (header + accesses) — the
// file-loading convenience behind the CLIs' @file argument.
func Decode(r io.Reader) (Header, []workload.TraceAccess, error) {
	d := NewDecoder(r)
	var h Header
	if err := d.DecodeHeader(&h); err != nil {
		return Header{}, nil, err
	}
	if h.Format != FormatV1 {
		return Header{}, nil, fmt.Errorf("tracegen: unknown trace format %q (want %q)", h.Format, FormatV1)
	}
	accs, err := d.ReadAccesses(h.Accesses)
	if err != nil {
		return Header{}, nil, err
	}
	return h, accs, nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
