package ckpt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, the reader of every DSPC file
// (-load, -ckpt-file): once as a whole file, and once as a payload with its
// CRC appended, so mutations reach the parser behind the checksum. Seeded
// with an Encode output and its payload. A bad file is an error, never a
// panic. A state that decodes re-encodes to exactly the bytes it came from (a
// state has one encoding; comparing bytes keeps NaN parameters comparable),
// and those bytes decode again.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleState().Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-4])
	f.Fuzz(func(t *testing.T, data []byte) {
		signed := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), crc32.ChecksumIEEE(data))
		for _, file := range [][]byte{data, signed} {
			s, err := Decode(bytes.NewReader(file))
			if err != nil {
				continue
			}
			var again bytes.Buffer
			if err := s.Encode(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), file) {
				t.Fatalf("re-encoding a decoded state changed its bytes:\n  in  %x\n  out %x", file, again.Bytes())
			}
			if _, err := Decode(&again); err != nil {
				t.Fatalf("re-encoded state does not decode: %v", err)
			}
		}
	})
}
