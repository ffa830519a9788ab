package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestFrameWriterRetention: a frameWriter frames into a buffer it keeps,
// so a steady stream of small frames allocates nothing, but a frame past
// maxRetainedFrame does not pin its size for the rest of the connection.
func TestFrameWriterRetention(t *testing.T) {
	var out bytes.Buffer
	w := frameWriter{conn: &out}
	body := []byte("a fixed frame body")
	appendBody := func(b []byte) []byte { return append(b, body...) }
	if err := w.write(appendBody); err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	if got, err := readFrame(&out, &scratch); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readFrame = %q, %v; want %q", got, err, body)
	}

	w.conn = io.Discard
	if allocs := testing.AllocsPerRun(100, func() {
		if err := w.write(appendBody); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("small frame: %v allocs per write, want 0", allocs)
	}

	big := make([]byte, maxRetainedFrame+1)
	if err := w.write(func(b []byte) []byte { return append(b, big...) }); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) != 0 {
		t.Fatalf("after a %d-byte frame the writer retains %d bytes, want 0", len(big), cap(w.buf))
	}
}
