package sddf

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// binaryMagic introduces a binary SDDF stream.
const binaryMagic = "SDDFB1\n"

const (
	packetDescriptor byte = 'D'
	packetRecord     byte = 'R'
)

// maxStringLen bounds decoded string sizes to keep malformed streams from
// allocating unboundedly.
const maxStringLen = 1 << 20

// BinaryWriter encodes descriptors and records into the binary SDDF framing:
// a magic header, then length-prefixed packets.
type BinaryWriter struct {
	w     *bufio.Writer
	descs map[int]Descriptor
}

// NewBinaryWriter writes the stream header and returns a writer.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: bufio.NewWriter(w), descs: make(map[int]Descriptor)}
	if _, err := bw.w.WriteString(binaryMagic); err != nil {
		return nil, err
	}
	return bw, nil
}

// WriteDescriptor emits a descriptor packet and registers the tag.
func (bw *BinaryWriter) WriteDescriptor(d Descriptor) error {
	if _, dup := bw.descs[d.Tag]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateTag, d.Tag)
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(d.Tag))
	buf = appendString(buf, d.Name)
	buf = binary.AppendUvarint(buf, uint64(len(d.Fields)))
	for _, f := range d.Fields {
		buf = appendString(buf, f.Name)
		buf = append(buf, byte(f.Type))
	}
	bw.descs[d.Tag] = d
	return bw.packet(packetDescriptor, buf)
}

// WriteRecord validates the record against its descriptor and emits it.
func (bw *BinaryWriter) WriteRecord(r Record) error {
	d, ok := bw.descs[r.Tag]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownTag, r.Tag)
	}
	if err := validate(d, r); err != nil {
		return err
	}
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(r.Tag))
	for _, v := range r.Values {
		switch x := v.(type) {
		case int32:
			buf = binary.AppendVarint(buf, int64(x))
		case int64:
			buf = binary.AppendVarint(buf, x)
		case float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		case string:
			buf = appendString(buf, x)
		}
	}
	return bw.packet(packetRecord, buf)
}

// Flush pushes buffered output to the underlying writer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

func (bw *BinaryWriter) packet(kind byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = kind
	if _, err := bw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bw.w.Write(payload)
	return err
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// BinaryReader decodes a binary SDDF stream.
type BinaryReader struct {
	r     *bufio.Reader
	descs map[int]Descriptor
}

// NewBinaryReader checks the stream header and returns a reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReader(r), descs: make(map[int]Descriptor)}
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("%w: missing header: %v", ErrBadFormat, err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	return br, nil
}

// Next returns the next stream item: a Descriptor or a Record. At end of
// stream it returns io.EOF.
func (br *BinaryReader) Next() (any, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated packet header: %v", ErrBadFormat, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > 1<<26 {
		return nil, fmt.Errorf("%w: packet of %d bytes", ErrBadFormat, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br.r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated packet: %v", ErrBadFormat, err)
	}
	switch hdr[4] {
	case packetDescriptor:
		return br.decodeDescriptor(payload)
	case packetRecord:
		return br.decodeRecord(payload)
	default:
		return nil, fmt.Errorf("%w: unknown packet kind %q", ErrBadFormat, hdr[4])
	}
}

type byteCursor struct {
	buf []byte
	pos int
}

func (c *byteCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadFormat)
	}
	c.pos += n
	return v, nil
}

func (c *byteCursor) varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadFormat)
	}
	c.pos += n
	return v, nil
}

func (c *byteCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen || c.pos+int(n) > len(c.buf) {
		return "", fmt.Errorf("%w: bad string length %d", ErrBadFormat, n)
	}
	s := string(c.buf[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
}

func (c *byteCursor) f64() (float64, error) {
	if c.pos+8 > len(c.buf) {
		return 0, fmt.Errorf("%w: truncated float", ErrBadFormat)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.pos:]))
	c.pos += 8
	return v, nil
}

func (br *BinaryReader) decodeDescriptor(payload []byte) (Descriptor, error) {
	c := &byteCursor{buf: payload}
	tag, err := c.uvarint()
	if err != nil {
		return Descriptor{}, err
	}
	name, err := c.str()
	if err != nil {
		return Descriptor{}, err
	}
	nf, err := c.uvarint()
	if err != nil {
		return Descriptor{}, err
	}
	if nf > 1<<16 {
		return Descriptor{}, fmt.Errorf("%w: %d fields", ErrBadFormat, nf)
	}
	d := Descriptor{Tag: int(tag), Name: name}
	for i := uint64(0); i < nf; i++ {
		fn, err := c.str()
		if err != nil {
			return Descriptor{}, err
		}
		if c.pos >= len(c.buf) {
			return Descriptor{}, fmt.Errorf("%w: truncated field type", ErrBadFormat)
		}
		ft := FieldType(c.buf[c.pos])
		c.pos++
		if ft < TInt32 || ft > TString {
			return Descriptor{}, fmt.Errorf("%w: field type %d", ErrBadFormat, ft)
		}
		d.Fields = append(d.Fields, Field{Name: fn, Type: ft})
	}
	if _, dup := br.descs[d.Tag]; dup {
		return Descriptor{}, fmt.Errorf("%w: %d", ErrDuplicateTag, d.Tag)
	}
	br.descs[d.Tag] = d
	return d, nil
}

func (br *BinaryReader) decodeRecord(payload []byte) (Record, error) {
	c := &byteCursor{buf: payload}
	tag, err := c.uvarint()
	if err != nil {
		return Record{}, err
	}
	d, ok := br.descs[int(tag)]
	if !ok {
		return Record{}, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	r := Record{Tag: int(tag), Values: make([]any, 0, len(d.Fields))}
	for _, f := range d.Fields {
		switch f.Type {
		case TInt32:
			v, err := c.varint()
			if err != nil {
				return Record{}, err
			}
			if v != int64(int32(v)) {
				return Record{}, fmt.Errorf("%w: field %q: %d overflows int32", ErrBadFormat, f.Name, v)
			}
			r.Values = append(r.Values, int32(v))
		case TInt64:
			v, err := c.varint()
			if err != nil {
				return Record{}, err
			}
			r.Values = append(r.Values, v)
		case TFloat64:
			v, err := c.f64()
			if err != nil {
				return Record{}, err
			}
			r.Values = append(r.Values, v)
		case TString:
			v, err := c.str()
			if err != nil {
				return Record{}, err
			}
			r.Values = append(r.Values, v)
		}
	}
	return r, nil
}
