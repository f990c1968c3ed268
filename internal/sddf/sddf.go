// Package sddf implements a Self-Defining Data Format in the style of the
// Pablo environment's SDDF: a performance-data metaformat that "separates the
// structure of performance data records from their semantics" (§3.1). A
// stream consists of record *descriptors* — named, tagged field layouts —
// followed by data *records* that reference a descriptor by tag. Both a
// compact binary encoding and a human-readable ASCII encoding are provided,
// and they round-trip losslessly.
//
// An io-event record's seq column is the record's 1-based position in its
// trace: WriteTrace numbers records 1..n, and ReadTrace checks the column's
// type but keeps events in stream order without it. So a trace written by
// another tool with other seq values (gaps, or out of order) reads as its
// records in stream order, and `sddfdump -convert` re-encodes it numbered
// 1..n. Every trace this program writes already is.
package sddf

import (
	"errors"
	"fmt"
)

// FieldType enumerates the primitive field types a descriptor may declare.
type FieldType int

// Supported field types.
const (
	TInt32 FieldType = iota
	TInt64
	TFloat64
	TString
)

var typeNames = [...]string{TInt32: "int32", TInt64: "int64", TFloat64: "float64", TString: "string"}

// String returns the type's name as used in the ASCII encoding.
func (t FieldType) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return fmt.Sprintf("FieldType(%d)", int(t))
	}
	return typeNames[t]
}

// ParseFieldType is the inverse of FieldType.String.
func ParseFieldType(s string) (FieldType, error) {
	for i, n := range typeNames {
		if n == s {
			return FieldType(i), nil
		}
	}
	return 0, fmt.Errorf("sddf: unknown field type %q", s)
}

// Field is one named, typed slot in a record layout.
type Field struct {
	Name string
	Type FieldType
}

// Descriptor declares a record layout: a stream-unique tag, a record name,
// and an ordered field list.
type Descriptor struct {
	Tag    int
	Name   string
	Fields []Field
}

// Record is one data record: the tag of its descriptor and one value per
// descriptor field, with concrete types int32, int64, float64 or string.
type Record struct {
	Tag    int
	Values []any
}

// Errors shared by the encoders and decoders.
var (
	// ErrUnknownTag is returned when a record references a tag with no
	// preceding descriptor.
	ErrUnknownTag = errors.New("sddf: record references unknown descriptor tag")

	// ErrTypeMismatch is returned when a record's values do not match its
	// descriptor's field types.
	ErrTypeMismatch = errors.New("sddf: record value type mismatch")

	// ErrBadFormat is returned for malformed input streams.
	ErrBadFormat = errors.New("sddf: malformed stream")

	// ErrDuplicateTag is returned when two descriptors claim one tag.
	ErrDuplicateTag = errors.New("sddf: duplicate descriptor tag")
)

// validate checks a record's arity and value types against its descriptor.
func validate(d Descriptor, r Record) error {
	if len(r.Values) != len(d.Fields) {
		return fmt.Errorf("%w: record %q has %d values, descriptor has %d fields",
			ErrTypeMismatch, d.Name, len(r.Values), len(d.Fields))
	}
	for i, f := range d.Fields {
		ok := false
		switch f.Type {
		case TInt32:
			_, ok = r.Values[i].(int32)
		case TInt64:
			_, ok = r.Values[i].(int64)
		case TFloat64:
			_, ok = r.Values[i].(float64)
		case TString:
			_, ok = r.Values[i].(string)
		}
		if !ok {
			return fmt.Errorf("%w: field %q wants %v, got %T",
				ErrTypeMismatch, f.Name, f.Type, r.Values[i])
		}
	}
	return nil
}
