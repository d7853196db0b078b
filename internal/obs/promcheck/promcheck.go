// Package promcheck validates Prometheus text expositions. It is a
// test oracle: the obs and service tests run it on live, value-varying
// /metrics output, which a golden file cannot pin. Only test files import
// it, so it ships in no binary.
package promcheck

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Check validates a Prometheus text exposition payload — the
// promtool-check-metrics stand-in the tests run on live, value-varying
// expositions, with no dependency beyond the standard library. It returns
// the number of sample series and the first violation found:
//
//   - line grammar: HELP/TYPE comments, samples `name{labels} value [ts]`
//   - metric and label names match the exposition charset
//   - at most one TYPE per family, declared before its samples
//   - no duplicate series (same name and label set)
//   - sample values parse as floats (+Inf/-Inf/NaN included)
//   - histogram families: a +Inf bucket exists, bucket counts are
//     cumulative (non-decreasing in le order), and the +Inf bucket
//     equals the family's _count sample for the same label set
func Check(data []byte) (int, error) {
	p := &expoParser{
		typed:   make(map[string]string),
		sampled: make(map[string]bool),
		seen:    make(map[string]bool),
		buckets: make(map[string]map[string][]bucketSample),
		counts:  make(map[string]map[string]float64),
		sums:    make(map[string]map[string]bool),
	}
	for i, line := range strings.Split(string(data), "\n") {
		if err := p.line(line); err != nil {
			return p.samples, fmt.Errorf("exposition line %d: %w: %q", i+1, err, line)
		}
	}
	if err := p.checkHistograms(); err != nil {
		return p.samples, err
	}
	return p.samples, nil
}

// label is one parsed label pair.
type label struct {
	Key, Value string
}

// bucketSample is one parsed _bucket sample of a histogram family.
type bucketSample struct {
	le    float64
	count float64
}

type expoParser struct {
	samples int
	typed   map[string]string // family -> type
	sampled map[string]bool   // family has samples already
	seen    map[string]bool   // name + labelset duplicates
	// histogram bookkeeping, keyed family -> label set (minus le)
	buckets map[string]map[string][]bucketSample
	counts  map[string]map[string]float64
	sums    map[string]map[string]bool
}

func (p *expoParser) line(line string) error {
	line = strings.TrimRight(line, "\r")
	if strings.TrimSpace(line) == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return p.comment(line)
	}
	return p.sample(line)
}

func (p *expoParser) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP")
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE")
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if p.typed[name] != "" {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		if p.sampled[name] {
			return fmt.Errorf("TYPE for %q after its samples", name)
		}
		p.typed[name] = typ
	}
	return nil
}

func (p *expoParser) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	valueStr, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
	value, err := parseValue(valueStr)
	if err != nil {
		return err
	}
	key := name + "{" + canonicalLabels(labels) + "}"
	if p.seen[key] {
		return fmt.Errorf("duplicate series %s", key)
	}
	p.seen[key] = true
	p.samples++

	// Histogram bookkeeping: attribute _bucket/_sum/_count samples to
	// their family when that family is TYPEd histogram.
	base, kind := name, ""
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if b, ok := strings.CutSuffix(name, suffix); ok && p.typed[b] == "histogram" {
			base, kind = b, suffix
			break
		}
	}
	famName := base
	if kind == "" {
		famName = name
	}
	p.sampled[famName] = true
	if kind == "" {
		if p.typed[name] == "histogram" {
			return fmt.Errorf("histogram family %q has a raw sample (want _bucket/_sum/_count)", name)
		}
		return nil
	}
	groupKey := canonicalLabels(dropLabel(labels, "le"))
	switch kind {
	case "_bucket":
		leStr, ok := labelValue(labels, "le")
		if !ok {
			return fmt.Errorf("histogram bucket without le label")
		}
		le, err := parseValue(leStr)
		if err != nil {
			return fmt.Errorf("unparseable le %q", leStr)
		}
		if p.buckets[base] == nil {
			p.buckets[base] = make(map[string][]bucketSample)
		}
		p.buckets[base][groupKey] = append(p.buckets[base][groupKey], bucketSample{le: le, count: value})
	case "_count":
		if p.counts[base] == nil {
			p.counts[base] = make(map[string]float64)
		}
		p.counts[base][groupKey] = value
	case "_sum":
		if p.sums[base] == nil {
			p.sums[base] = make(map[string]bool)
		}
		p.sums[base][groupKey] = true
	}
	return nil
}

// checkHistograms validates bucket cumulativity and the +Inf/_count
// agreement for every histogram family, in sorted order so the first
// reported violation is deterministic.
func (p *expoParser) checkHistograms() error {
	fams := make([]string, 0, len(p.typed))
	for name, typ := range p.typed {
		if typ == "histogram" {
			fams = append(fams, name)
		}
	}
	sort.Strings(fams)
	for _, fam := range fams {
		groups := make([]string, 0, len(p.buckets[fam]))
		for g := range p.buckets[fam] {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			bs := p.buckets[fam][g]
			sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
			var prev float64
			hasInf := false
			for _, b := range bs {
				if b.count < prev {
					return fmt.Errorf("histogram %s{%s}: bucket le=%g count %g < previous %g (not cumulative)", fam, g, b.le, b.count, prev)
				}
				prev = b.count
				if math.IsInf(b.le, +1) {
					hasInf = true
				}
			}
			if !hasInf {
				return fmt.Errorf("histogram %s{%s}: no +Inf bucket", fam, g)
			}
			count, ok := p.counts[fam][g]
			if !ok {
				return fmt.Errorf("histogram %s{%s}: missing _count", fam, g)
			}
			if !p.sums[fam][g] {
				return fmt.Errorf("histogram %s{%s}: missing _sum", fam, g)
			}
			if count != bs[len(bs)-1].count {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", fam, g, bs[len(bs)-1].count, count)
			}
		}
		if len(p.buckets[fam]) == 0 && p.sampled[fam] {
			return fmt.Errorf("histogram %s: samples but no buckets", fam)
		}
	}
	return nil
}

// splitSample splits a sample line into name, parsed labels, and the
// value remainder, handling escaped quotes inside label values.
func splitSample(line string) (name string, labels []label, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	sp := strings.IndexAny(line, " \t")
	if brace == -1 || (sp != -1 && sp < brace) {
		if sp == -1 {
			return "", nil, "", fmt.Errorf("sample has no value")
		}
		return line[:sp], nil, line[sp+1:], nil
	}
	name = line[:brace]
	i := brace + 1
	for {
		// skip whitespace and trailing comma, detect closing brace
		for i < len(line) && (line[i] == ' ' || line[i] == ',') {
			i++
		}
		if i >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated label set")
		}
		if line[i] == '}' {
			i++
			break
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq == -1 {
			return "", nil, "", fmt.Errorf("label without '='")
		}
		lname := line[i : i+eq]
		if !validLabelName(lname) {
			return "", nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		i += eq + 1
		if i >= len(line) || line[i] != '"' {
			return "", nil, "", fmt.Errorf("label value not quoted")
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(line) {
			c := line[i]
			if c == '\\' && i+1 < len(line) {
				switch line[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", nil, "", fmt.Errorf("bad escape \\%c in label value", line[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				closed = true
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return "", nil, "", fmt.Errorf("unterminated label value")
		}
		labels = append(labels, label{Key: lname, Value: val.String()})
	}
	rest = strings.TrimLeft(line[i:], " \t")
	if rest == "" {
		return "", nil, "", fmt.Errorf("sample has no value")
	}
	return name, labels, rest, nil
}

// parseValue parses an exposition sample value.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("unparseable value %q", s)
	}
	return v, nil
}

func canonicalLabels(labels []label) string {
	ls := append([]label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return strings.Join(parts, ",")
}

func labelValue(labels []label, key string) (string, bool) {
	for _, l := range labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

func dropLabel(labels []label, key string) []label {
	out := make([]label, 0, len(labels))
	for _, l := range labels {
		if l.Key != key {
			out = append(out, l)
		}
	}
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeLabelValue re-escapes a parsed label value the way the
// exposition writes it, so series keys and messages read like the input.
func escapeLabelValue(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}
