package sddf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// asciiMagic introduces an ASCII SDDF stream.
const asciiMagic = "#SDDFA 1"

// ASCIIWriter encodes descriptors and records as text, one item per line:
//
//	#SDDFA 1
//	#D <tag> <name> <field>:<type>,<field>:<type>,...
//	<tag> <value> <value> ...
//
// Strings are Go-quoted, so arbitrary content survives the round trip.
type ASCIIWriter struct {
	w     *bufio.Writer
	descs map[int]Descriptor
}

// NewASCIIWriter writes the stream header and returns a writer.
func NewASCIIWriter(w io.Writer) (*ASCIIWriter, error) {
	aw := &ASCIIWriter{w: bufio.NewWriter(w), descs: make(map[int]Descriptor)}
	if _, err := fmt.Fprintln(aw.w, asciiMagic); err != nil {
		return nil, err
	}
	return aw, nil
}

// WriteDescriptor emits a descriptor line and registers the tag.
func (aw *ASCIIWriter) WriteDescriptor(d Descriptor) error {
	if _, dup := aw.descs[d.Tag]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateTag, d.Tag)
	}
	fields := make([]string, len(d.Fields))
	for i, f := range d.Fields {
		fields[i] = f.Name + ":" + f.Type.String()
	}
	aw.descs[d.Tag] = d
	_, err := fmt.Fprintf(aw.w, "#D %d %s %s\n", d.Tag, strconv.Quote(d.Name), strings.Join(fields, ","))
	return err
}

// WriteRecord validates and emits a record line.
func (aw *ASCIIWriter) WriteRecord(r Record) error {
	d, ok := aw.descs[r.Tag]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTag, r.Tag)
	}
	if err := validate(d, r); err != nil {
		return err
	}
	parts := make([]string, 0, len(r.Values)+1)
	parts = append(parts, strconv.Itoa(r.Tag))
	for _, v := range r.Values {
		switch x := v.(type) {
		case int32:
			parts = append(parts, strconv.FormatInt(int64(x), 10))
		case int64:
			parts = append(parts, strconv.FormatInt(x, 10))
		case float64:
			parts = append(parts, strconv.FormatFloat(x, 'g', -1, 64))
		case string:
			parts = append(parts, strconv.Quote(x))
		}
	}
	_, err := fmt.Fprintln(aw.w, strings.Join(parts, " "))
	return err
}

// Flush pushes buffered output to the underlying writer.
func (aw *ASCIIWriter) Flush() error { return aw.w.Flush() }

// ASCIIReader decodes an ASCII SDDF stream.
type ASCIIReader struct {
	sc    *bufio.Scanner
	descs map[int]Descriptor
	line  int
}

// NewASCIIReader checks the header line and returns a reader.
func NewASCIIReader(r io.Reader) (*ASCIIReader, error) {
	ar := &ASCIIReader{sc: bufio.NewScanner(r), descs: make(map[int]Descriptor)}
	ar.sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !ar.sc.Scan() || strings.TrimSpace(ar.sc.Text()) != asciiMagic {
		return nil, fmt.Errorf("%w: missing ASCII header", ErrBadFormat)
	}
	ar.line = 1
	return ar, nil
}

// Next returns the next Descriptor or Record, or io.EOF.
func (ar *ASCIIReader) Next() (any, error) {
	for ar.sc.Scan() {
		ar.line++
		line := strings.TrimSpace(ar.sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#D ") {
			return ar.parseDescriptor(line[3:])
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		return ar.parseRecord(line)
	}
	if err := ar.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func (ar *ASCIIReader) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, ar.line, fmt.Sprintf(format, args...))
}

func (ar *ASCIIReader) parseDescriptor(rest string) (Descriptor, error) {
	// <tag> <quoted-name> <fieldspec>
	tagStr, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return Descriptor{}, ar.errf("descriptor missing name")
	}
	tag, err := strconv.Atoi(tagStr)
	if err != nil {
		return Descriptor{}, ar.errf("bad tag %q", tagStr)
	}
	name, rest, err := cutQuoted(rest)
	if err != nil {
		return Descriptor{}, ar.errf("bad name: %v", err)
	}
	d := Descriptor{Tag: tag, Name: name}
	spec := strings.TrimSpace(rest)
	if spec != "" {
		for _, fs := range strings.Split(spec, ",") {
			fname, ftype, ok := strings.Cut(fs, ":")
			if !ok {
				return Descriptor{}, ar.errf("bad field spec %q", fs)
			}
			ft, err := ParseFieldType(ftype)
			if err != nil {
				return Descriptor{}, ar.errf("%v", err)
			}
			d.Fields = append(d.Fields, Field{Name: fname, Type: ft})
		}
	}
	if _, dup := ar.descs[d.Tag]; dup {
		return Descriptor{}, fmt.Errorf("%w: %d", ErrDuplicateTag, d.Tag)
	}
	ar.descs[d.Tag] = d
	return d, nil
}

func (ar *ASCIIReader) parseRecord(line string) (Record, error) {
	tagStr, rest, _ := strings.Cut(line, " ")
	tag, err := strconv.Atoi(tagStr)
	if err != nil {
		return Record{}, ar.errf("bad record tag %q", tagStr)
	}
	d, ok := ar.descs[tag]
	if !ok {
		return Record{}, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	r := Record{Tag: tag, Values: make([]any, 0, len(d.Fields))}
	for _, f := range d.Fields {
		rest = strings.TrimLeft(rest, " ")
		if rest == "" {
			return Record{}, ar.errf("record for %q too short", d.Name)
		}
		switch f.Type {
		case TString:
			s, remain, err := cutQuoted(rest)
			if err != nil {
				return Record{}, ar.errf("field %q: %v", f.Name, err)
			}
			r.Values = append(r.Values, s)
			rest = remain
		default:
			tok, remain, _ := strings.Cut(rest, " ")
			switch f.Type {
			case TInt32:
				v, err := strconv.ParseInt(tok, 10, 32)
				if err != nil {
					return Record{}, ar.errf("field %q: %v", f.Name, err)
				}
				r.Values = append(r.Values, int32(v))
			case TInt64:
				v, err := strconv.ParseInt(tok, 10, 64)
				if err != nil {
					return Record{}, ar.errf("field %q: %v", f.Name, err)
				}
				r.Values = append(r.Values, v)
			case TFloat64:
				v, err := strconv.ParseFloat(tok, 64)
				if err != nil {
					return Record{}, ar.errf("field %q: %v", f.Name, err)
				}
				r.Values = append(r.Values, v)
			}
			rest = remain
		}
	}
	if strings.TrimSpace(rest) != "" {
		return Record{}, ar.errf("record for %q has trailing data %q", d.Name, rest)
	}
	return r, nil
}

// cutQuoted parses a leading Go-quoted string and returns it plus the rest
// of the line.
func cutQuoted(s string) (string, string, error) {
	s = strings.TrimLeft(s, " ")
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected quoted string at %q", s)
	}
	// Find the closing quote, honoring backslash escapes.
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			q := s[:i+1]
			unq, err := strconv.Unquote(q)
			if err != nil {
				return "", "", err
			}
			return unq, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string %q", s)
}
