package resultcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"unicode/utf8"

	"rdramstream/internal/sim"
)

// Encode pairs an outcome with its JSON: the indented encoding of an
// outcome that sits one level deep in an Envelope, nil when it has none
// (see Result.JSON). It is the one encoder of outcomes for the wire and
// the disk store.
func Encode(out sim.Outcome) Result {
	res := Result{Outcome: out}
	b, err := json.MarshalIndent(out, "  ", "  ")
	if err == nil {
		// MarshalIndent leaves room for twice the compact encoding; an
		// entry keeps these bytes for its life in the LRU, so keep only
		// what they use.
		res.JSON = bytes.Clone(b)
	}
	return res
}

// ErrNoEncoding reports an outcome with no JSON encoding (a NaN or Inf,
// which outcomes never carry): Result.JSON is nil.
var ErrNoEncoding = errors.New("resultcache: outcome has no JSON encoding")

// Envelope builds one indented JSON object around an encoded outcome:
// the bytes that json.MarshalIndent(v, "", "  ") plus a trailing newline
// give for a struct v of string and bool fields ending in a sim.Outcome.
// The /v1/simulate, /v1/trace and GET /v1/cache/{key} bodies and the
// disk entry file are all such envelopes. Start from an empty Envelope
// (its capacity is reused), add the leading fields in order, and close
// it with Outcome.
type Envelope []byte

// Str adds a string field.
func (e Envelope) Str(name, v string) Envelope {
	return appendString(e.field(name), v)
}

// Bool adds a bool field.
func (e Envelope) Bool(name string, v bool) Envelope {
	return strconv.AppendBool(e.field(name), v)
}

// Outcome closes the object with an "outcome" field holding frag, an
// entry's Result.JSON, and returns the finished body.
func (e Envelope) Outcome(frag []byte) []byte {
	return append(append(e.field("outcome"), frag...), "\n}\n"...)
}

// field opens the next field: separator, indentation and name.
func (e Envelope) field(name string) Envelope {
	if len(e) == 0 {
		e = append(e, '{')
	} else {
		e = append(e, ',')
	}
	e = append(append(append(e, "\n  \""...), name...), "\": "...)
	return e
}

// appendString appends v as encoding/json writes a string. Keys, job
// IDs and version stamps are printable ASCII that needs no escape and
// are written verbatim; anything else goes through json.Marshal.
func appendString(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(v) // a string always encodes
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), v...), '"')
}
