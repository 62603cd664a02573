package telemetry

// Lint is the exposition writer's test oracle: every test that renders
// a page (golden, full instrument set, live endpoints, pages written
// while ranks observe, the scheduler gauges) runs it through here.

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Lint validates a text-format exposition without external dependencies —
// the subset of promtool/promlint checks that catch real breakage:
//
//   - every sample belongs to a family announced by a preceding # TYPE;
//   - HELP/TYPE appear at most once per family and before its samples;
//   - sample lines parse (name, balanced/escaped label syntax, float value);
//   - counter samples are non-negative;
//   - histogram buckets are cumulative (non-decreasing in le order), the
//     +Inf bucket exists and equals _count.
//
// It returns nil for a scrape-clean page.
func Lint(page []byte) error {
	type family struct {
		typ        string
		hasHelp    bool
		samples    int
		bucketLast map[string]float64 // label-sig (sans le) -> last cumulative
		bucketInf  map[string]float64 // label-sig -> +Inf bucket value
		count      map[string]float64 // label-sig -> _count value
		lastLe     map[string]float64
	}
	fams := map[string]*family{}
	get := func(name string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{bucketLast: map[string]float64{}, bucketInf: map[string]float64{},
				count: map[string]float64{}, lastLe: map[string]float64{}}
			fams[name] = f
		}
		return f
	}
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // other comments are legal and ignored
			}
			f := get(fields[2])
			if f.samples > 0 {
				return fmt.Errorf("line %d: # %s %s after samples of that family", lineno, fields[1], fields[2])
			}
			if fields[1] == "HELP" {
				if f.hasHelp {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineno, fields[2])
				}
				f.hasHelp = true
			} else {
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineno, fields[2])
				}
				if len(fields) < 4 {
					return fmt.Errorf("line %d: TYPE missing kind", lineno)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q", lineno, fields[3])
				}
				f.typ = fields[3]
			}
			continue
		}
		name, sig, le, hasLe, val, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineno, err)
		}
		fam, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if bf, ok := fams[base]; ok && bf.typ == "histogram" {
					fam, suffix = base, sfx
				}
				break
			}
		}
		f, ok := fams[fam]
		if !ok || f.typ == "" {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineno, name)
		}
		f.samples++
		switch {
		case f.typ == "counter" && val < 0:
			return fmt.Errorf("line %d: counter %s is negative (%g)", lineno, name, val)
		case f.typ == "histogram" && suffix == "_bucket":
			if !hasLe {
				return fmt.Errorf("line %d: bucket sample without le label", lineno)
			}
			if le == "+Inf" {
				f.bucketInf[sig] = val
			} else {
				b, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad le value %q", lineno, le)
				}
				if prev, ok := f.lastLe[sig]; ok && b <= prev {
					return fmt.Errorf("line %d: histogram %s le %g not ascending (prev %g)", lineno, fam, b, prev)
				}
				f.lastLe[sig] = b
			}
			if prev, ok := f.bucketLast[sig]; ok && val < prev {
				return fmt.Errorf("line %d: histogram %s bucket not cumulative (%g < %g)", lineno, fam, val, prev)
			}
			f.bucketLast[sig] = val
		case f.typ == "histogram" && suffix == "_count":
			f.count[sig] = val
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for name, f := range fams {
		if f.typ != "histogram" {
			continue
		}
		for sig, c := range f.count {
			inf, ok := f.bucketInf[sig]
			if !ok {
				return fmt.Errorf("histogram %s%s missing +Inf bucket", name, sig)
			}
			if inf != c {
				return fmt.Errorf("histogram %s%s: +Inf bucket %g != _count %g", name, sig, inf, c)
			}
		}
	}
	return nil
}

// parseSample splits a sample line into metric name, a canonical label
// signature excluding le, the le value if present, and the float value.
func parseSample(line string) (name, sig, le string, hasLe bool, val float64, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", "", false, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !validName(name) {
		return "", "", "", false, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	var labels []Label
	if rest[0] == '{' {
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return "", "", "", false, 0, err
		}
	}
	rest = strings.TrimSpace(rest)
	v := strings.Fields(rest)
	if len(v) < 1 {
		return "", "", "", false, 0, fmt.Errorf("sample %q missing value", line)
	}
	if v[0] == "+Inf" || v[0] == "-Inf" || v[0] == "NaN" {
		val = 0
	} else if val, err = strconv.ParseFloat(v[0], 64); err != nil {
		return "", "", "", false, 0, fmt.Errorf("bad sample value %q", v[0])
	}
	var sigParts []string
	for _, l := range labels {
		if l.Key == "le" {
			le, hasLe = l.Value, true
			continue
		}
		sigParts = append(sigParts, l.Key+"="+l.Value)
	}
	sort.Strings(sigParts)
	if len(sigParts) > 0 {
		sig = "{" + strings.Join(sigParts, ",") + "}"
	}
	return name, sig, le, hasLe, val, nil
}

// parseLabels consumes a {k="v",...} block, honouring \\ \" \n escapes.
func parseLabels(s string) ([]Label, string, error) {
	var out []Label
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return out, s[i+1:], nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return nil, "", fmt.Errorf("unterminated label in %q", s)
		}
		key := strings.TrimSpace(s[i:j])
		if !validName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		j++ // past '='
		if j >= len(s) || s[j] != '"' {
			return nil, "", fmt.Errorf("label %s value not quoted", key)
		}
		j++
		var val strings.Builder
		for j < len(s) && s[j] != '"' {
			if s[j] == '\\' {
				j++
				if j >= len(s) {
					return nil, "", fmt.Errorf("dangling escape in label %s", key)
				}
				switch s[j] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("bad escape \\%c in label %s", s[j], key)
				}
			} else {
				val.WriteByte(s[j])
			}
			j++
		}
		if j >= len(s) {
			return nil, "", fmt.Errorf("unterminated label value for %s", key)
		}
		out = append(out, Label{Key: key, Value: val.String()})
		i = j + 1
	}
}

// validName reports whether s is a legal metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
