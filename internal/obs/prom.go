package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file renders a Registry snapshot in the Prometheus text
// exposition format (version 0.0.4): per family a # HELP and # TYPE
// line, then one line per sample. Families are sorted by name and
// series by label string, so identical registry states encode
// byte-identically — the property the golden-file test pins down.

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, with infinities as +Inf/-Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WriteTo encodes the snapshot in Prometheus text format.
func WriteTo(w io.Writer, fams []Family) error {
	var sb strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Samples {
			sb.WriteString(s.Name)
			if len(s.Labels) > 0 {
				sb.WriteByte('{')
				for i := 0; i+1 < len(s.Labels); i += 2 {
					if i > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(s.Labels[i])
					sb.WriteString(`="`)
					sb.WriteString(escapeLabel(s.Labels[i+1]))
					sb.WriteByte('"')
				}
				sb.WriteByte('}')
			}
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.Value))
			sb.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Sample is one parsed exposition line: a series name, its labels in
// file order, and the value.
type Sample struct {
	// Name is the sample name, including histogram suffixes.
	Name string
	// Labels are k/v pairs in file order.
	Labels []string
	// Value is the parsed sample value.
	Value float64
}

// Key returns the sample's identity: name plus sorted labels — what
// "distinct series" means for tests and obsdump.
func (s Sample) Key() string {
	_, id, _ := canonLabels(s.Name, s.Labels)
	return s.Name + "{" + id + "}"
}

// Label returns the value of the named label, or "".
func (s Sample) Label(key string) string {
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if s.Labels[i] == key {
			return s.Labels[i+1]
		}
	}
	return ""
}

// ParseText parses Prometheus text exposition data (the subset WriteTo
// emits: HELP/TYPE comments and simple samples without timestamps)
// into samples plus the TYPE of each family. It is the reader half of
// the encoder, used by cmd/obsdump and the format tests.
func ParseText(data string) (samples []Sample, types map[string]Kind, err error) {
	types = make(map[string]Kind)
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = Kind(fields[3])
			}
			continue
		}
		s, perr := parseSample(line)
		if perr != nil {
			return nil, nil, fmt.Errorf("obs: line %d: %w", ln+1, perr)
		}
		samples = append(samples, s)
	}
	return samples, types, nil
}

// parseSample parses one `name{k="v",...} value` line.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		labels, after, err := parseLabels(rest[1:])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels, rest = labels, after
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// parseValue accepts the formatFloat output, including signed Inf.
func parseValue(text string) (float64, error) {
	switch text {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(text, 64)
}

// parseLabels parses a label block from just after its "{" through the
// closing "}" — the first one outside a quoted value, since WriteTo
// does not escape braces — and returns the labels and the text after
// the block.
func parseLabels(body string) ([]string, string, error) {
	var labels []string
	for {
		body = strings.TrimSpace(body)
		if rest, ok := strings.CutPrefix(body, "}"); ok {
			return labels, rest, nil
		}
		eq := strings.Index(body, "=")
		if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed or unterminated labels %q", body)
		}
		key := body[:eq]
		rest := body[eq+2:]
		var sb strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					sb.WriteByte('\n')
				default:
					sb.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
		}
		if i == len(rest) {
			return nil, "", fmt.Errorf("unterminated label value for %q", key)
		}
		labels = append(labels, key, sb.String())
		body = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
	}
}
