package sddf

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace. It must return an error
// or events, never panic, and any events it returns must survive a
// re-encode and decode in both encodings unchanged. The seeds are the
// round-trip samples in both encodings.
func FuzzReadTrace(f *testing.F) {
	for _, ascii := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, sampleEvents(), ascii); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, ascii := range []bool{false, true} {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, events, ascii); err != nil {
				t.Fatalf("re-encode (ascii=%v): %v", ascii, err)
			}
			back, err := ReadTrace(&buf)
			if err != nil {
				t.Fatalf("decode re-encoded trace (ascii=%v): %v", ascii, err)
			}
			if !slices.Equal(back, events) {
				t.Fatalf("re-encoded trace (ascii=%v) decodes to %v, want %v", ascii, back, events)
			}
		}
	})
}
