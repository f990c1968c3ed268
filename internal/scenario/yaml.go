package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The scenario DSL accepts a YAML subset alongside JSON, so corpus files read
// like the Navarch stress-testing scenarios the ROADMAP points at without
// pulling a YAML dependency into the module. Supported: block mappings and
// sequences nested by indentation, "- " items (including inline "- key: val"
// mapping starts), scalars (null, bools, ints, floats, bare and quoted
// strings), "#" comments, and one-line flow sequences/empty collections.
// Not supported (rejected with a line number): tab indentation, anchors,
// aliases, tags, multi-line strings, and multi-level flow nesting.

// parseYAML decodes the subset into a tree json.Marshal turns back into
// JSON: map[string]any, []any, string, bool, nil, json.Number for integers
// (exact up to uint64) and float64 for other numbers.
func parseYAML(data []byte) (any, error) {
	lines, err := splitYAMLLines(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	p := &yamlParser{lines: lines}
	v, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("yaml: line %d: content outside the document structure (check indentation)", p.lines[p.pos].num)
	}
	return v, nil
}

type yamlLine struct {
	indent int
	text   string // content with indentation and trailing comment stripped
	num    int    // 1-based source line
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// splitYAMLLines strips comments and blank lines and computes indentation.
func splitYAMLLines(src string) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		num := i + 1
		if strings.HasPrefix(strings.TrimLeft(raw, " \t"), "---") {
			continue // document marker
		}
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if indent < len(raw) && raw[indent] == '\t' {
			return nil, fmt.Errorf("yaml: line %d: tab indentation is not supported (use spaces)", num)
		}
		text := stripComment(raw[indent:])
		text = strings.TrimRight(text, " \t")
		if text == "" {
			continue
		}
		out = append(out, yamlLine{indent: indent, text: text, num: num})
	}
	return out, nil
}

// stripComment removes a trailing "# ..." comment, respecting quotes.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t'):
			return s[:i]
		}
	}
	return s
}

// parseBlock parses the run of lines at exactly this indent as one value — a
// sequence if the first line is an item, a mapping otherwise.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	ln := p.lines[p.pos]
	if ln.indent != indent {
		return nil, fmt.Errorf("yaml: line %d: unexpected indentation %d (expected %d)", ln.num, ln.indent, indent)
	}
	if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	out := []any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indentation inside sequence", ln.num)
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			break // a sibling mapping key ends the sequence
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		if rest == "" {
			// Item body on the following, deeper-indented lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				out = append(out, nil)
				continue
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		if key, val, isMap := splitKey(rest); isMap {
			// "- key: value" starts an inline mapping whose further keys sit
			// at the content column; rewrite the line and reparse as a map.
			contentIndent := ln.indent + (len(ln.text) - len(rest))
			p.lines[p.pos] = yamlLine{indent: contentIndent, text: rest, num: ln.num}
			_ = key
			_ = val
			v, err := p.parseMapping(contentIndent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.pos++
	}
	return out, nil
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	out := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indentation %d inside mapping at %d", ln.num, ln.indent, indent)
		}
		if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
			return nil, fmt.Errorf("yaml: line %d: sequence item inside a mapping (check indentation)", ln.num)
		}
		key, rest, ok := splitKey(ln.text)
		if !ok {
			return nil, fmt.Errorf("yaml: line %d: expected \"key: value\", got %q", ln.num, ln.text)
		}
		key = unquoteKey(key)
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", ln.num, key)
		}
		if rest == "" {
			// Nested block (or an empty value if nothing is deeper).
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				out[key] = nil
				continue
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out[key] = v
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, err
		}
		out[key] = v
		p.pos++
	}
	return out, nil
}

// splitKey splits "key: rest" at the first colon outside quotes; a colon must
// be followed by a space or end the line to count (so "12:30:00" is a scalar).
func splitKey(s string) (key, rest string, ok bool) {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ':':
			if i+1 == len(s) {
				return strings.TrimSpace(s[:i]), "", true
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
			}
		}
	}
	return "", "", false
}

func unquoteKey(key string) string {
	if len(key) >= 2 {
		if (key[0] == '"' && key[len(key)-1] == '"') || (key[0] == '\'' && key[len(key)-1] == '\'') {
			return key[1 : len(key)-1]
		}
	}
	return key
}

// parseScalar interprets one scalar (or one-line flow collection).
func parseScalar(s string, num int) (any, error) {
	switch {
	case s == "" || s == "~" || s == "null":
		return nil, nil
	case s == "true":
		return true, nil
	case s == "false":
		return false, nil
	case s == "[]":
		return []any{}, nil
	case s == "{}":
		return map[string]any{}, nil
	}
	if s[0] == '[' {
		if s[len(s)-1] != ']' {
			return nil, fmt.Errorf("yaml: line %d: unterminated flow sequence %q", num, s)
		}
		var out []any
		for _, part := range splitFlow(s[1 : len(s)-1]) {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if strings.ContainsAny(part, "[{") {
				return nil, fmt.Errorf("yaml: line %d: nested flow collections are not supported", num)
			}
			v, err := parseScalar(part, num)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if out == nil {
			out = []any{}
		}
		return out, nil
	}
	if s[0] == '{' {
		return nil, fmt.Errorf("yaml: line %d: flow mappings are not supported (use block style)", num)
	}
	if s[0] == '"' || s[0] == '\'' {
		if len(s) < 2 || s[len(s)-1] != s[0] {
			return nil, fmt.Errorf("yaml: line %d: unterminated string %s", num, s)
		}
		body := s[1 : len(s)-1]
		if s[0] == '"' {
			unq, err := strconv.Unquote(s)
			if err != nil {
				return nil, fmt.Errorf("yaml: line %d: bad string %s: %v", num, s, err)
			}
			return unq, nil
		}
		return strings.ReplaceAll(body, "''", "'"), nil
	}
	if s[0] == '&' || s[0] == '*' || s[0] == '!' || s[0] == '|' || s[0] == '>' {
		return nil, fmt.Errorf("yaml: line %d: %q: anchors, tags and block scalars are not supported", num, s)
	}
	// An integer keeps its exact value as a json.Number in strconv's
	// canonical text, which json.Marshal accepts where "+5" or "007" would be
	// invalid literals. Only one past uint64 falls back to float64.
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return json.Number(strconv.FormatInt(n, 10)), nil
	}
	if n, err := strconv.ParseUint(strings.TrimPrefix(s, "+"), 10, 64); err == nil {
		return json.Number(strconv.FormatUint(n, 10)), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// splitFlow splits a flow-sequence body at commas outside quotes.
func splitFlow(s string) []string {
	var parts []string
	var quote byte
	last := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == ',':
			parts = append(parts, s[last:i])
			last = i + 1
		}
	}
	parts = append(parts, s[last:])
	return parts
}
