package giop

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"testing/iotest"
)

// frameStream marshals one request per payload size into a single wire
// stream, returning the stream and each frame's header and body.
func frameStream(sizes ...int) (wire []byte, hdrs []Header, bodies [][]byte) {
	for i, n := range sizes {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		order := BigEndian
		if i%2 == 1 {
			order = LittleEndian
		}
		start := len(wire)
		wire = MarshalRequest(wire, order, &Request{
			RequestID: uint32(i + 1), Operation: "echo", ObjectKey: []byte("key"),
			ResponseExpected: true, Payload: payload,
		})
		h, err := ParseHeader(wire[start : start+HeaderSize])
		if err != nil {
			panic(err)
		}
		hdrs = append(hdrs, h)
		bodies = append(bodies, wire[start+HeaderSize:])
	}
	return wire, hdrs, bodies
}

// countingReader counts Read calls and records the largest buffer offered.
type countingReader struct {
	r       io.Reader
	reads   int
	maxRead int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if len(p) > c.maxRead {
		c.maxRead = len(p)
	}
	return c.r.Read(p)
}

// drainFrames reads every frame with NextFrame, retrying deadline errors,
// and checks each against the expected headers and bodies. The stream must
// end in bare io.EOF.
func drainFrames(t *testing.T, fr *FrameReader, hdrs []Header, bodies [][]byte) {
	t.Helper()
	for i := 0; ; {
		h, fb, err := fr.NextFrame()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if i == len(hdrs) {
			if err != io.EOF {
				t.Fatalf("after %d frames: err = %v, want bare io.EOF", i, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h != hdrs[i] || !bytes.Equal(fb.Body(), bodies[i]) {
			t.Fatalf("frame %d: header %+v (%d bytes), want %+v (%d bytes)", i, h, len(fb.Body()), hdrs[i], len(bodies[i]))
		}
		fb.Release()
		i++
	}
}

// drainNext is drainFrames for Next.
func drainNext(t *testing.T, fr *FrameReader, hdrs []Header, bodies [][]byte) {
	t.Helper()
	for i := 0; ; {
		h, body, err := fr.Next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			continue
		}
		if i == len(hdrs) {
			if err != io.EOF {
				t.Fatalf("Next after %d frames: err = %v, want bare io.EOF", i, err)
			}
			return
		}
		if err != nil || h != hdrs[i] || !bytes.Equal(body, bodies[i]) {
			t.Fatalf("Next frame %d: header %+v (%d bytes) %v, want %+v (%d bytes)", i, h, len(body), err, hdrs[i], len(bodies[i]))
		}
		i++
	}
}

func withLeakCheck(t *testing.T) {
	t.Helper()
	SetFrameLeakCheck(true)
	t.Cleanup(func() {
		leaks := CheckFrameLeaks()
		SetFrameLeakCheck(false)
		if len(leaks) != 0 {
			t.Errorf("frames leaked: %v", leaks)
		}
	})
}

// TestFrameReaderBatchesOneRead delivers 16 small frames in a single Read:
// they come back in order, and the reader touches the stream at most twice
// (the batch, then the end of stream).
func TestFrameReaderBatchesOneRead(t *testing.T) {
	withLeakCheck(t)
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = 200 + i
	}
	wire, hdrs, bodies := frameStream(sizes...)
	cr := &countingReader{r: bytes.NewReader(wire)}
	fr := NewFrameReader(cr, 0)
	drainFrames(t, fr, hdrs, bodies)
	if cr.reads > 2 {
		t.Errorf("16 frames in one read took %d reads, want at most 2", cr.reads)
	}
	fr.Close()
}

// TestFrameReaderOneByteReads feeds the stream a byte per Read, through
// both NextFrame and Next.
func TestFrameReaderOneByteReads(t *testing.T) {
	withLeakCheck(t)
	wire, hdrs, bodies := frameStream(0, 5, 300, 9000)
	fr := NewFrameReader(iotest.OneByteReader(bytes.NewReader(wire)), 0)
	drainFrames(t, fr, hdrs, bodies)
	fr.Close()
	drainNext(t, NewFrameReader(iotest.OneByteReader(bytes.NewReader(wire)), 0), hdrs, bodies)
}

// deadlineAt serves the stream in full reads but fails the first Read that
// starts at byte offset at with a deadline error, once.
type deadlineAt struct {
	data  []byte
	off   int
	at    int
	fired bool
}

func (d *deadlineAt) Read(p []byte) (int, error) {
	if d.off == len(d.data) {
		return 0, io.EOF
	}
	if !d.fired && d.off >= d.at {
		d.fired = true
		return 0, os.ErrDeadlineExceeded
	}
	end := len(d.data)
	if !d.fired && d.at < end {
		end = d.at // stop short so the next read starts at the fault
	}
	n := copy(p, d.data[d.off:end])
	d.off += n
	return n, nil
}

// TestFrameReaderDeadlineAtEveryOffset interrupts the stream with a deadline
// error at every byte offset, for both NextFrame and Next: each resumes
// with the staged and partial bytes intact.
func TestFrameReaderDeadlineAtEveryOffset(t *testing.T) {
	withLeakCheck(t)
	wire, hdrs, bodies := frameStream(3, 40, 0, 17)
	for at := 0; at < len(wire); at++ {
		fr := NewFrameReader(&deadlineAt{data: wire, at: at}, 0)
		drainFrames(t, fr, hdrs, bodies)
		fr.Close()

		drainNext(t, NewFrameReader(&deadlineAt{data: wire, at: at}, 0), hdrs, bodies)
	}
}

// TestFrameReaderLargeBodyReadsDirect checks that a 64 KiB body bypasses
// the staging buffer: after the first staged read, the remainder arrives
// in one Read straight into the frame.
func TestFrameReaderLargeBodyReadsDirect(t *testing.T) {
	withLeakCheck(t)
	wire, hdrs, bodies := frameStream(64 << 10)
	cr := &countingReader{r: bytes.NewReader(wire)}
	fr := NewFrameReader(cr, 0)
	drainFrames(t, fr, hdrs, bodies)
	if cr.maxRead <= stageSize {
		t.Errorf("largest read offered %d bytes; want a direct read past the %d-byte stage", cr.maxRead, stageSize)
	}
	if cr.reads > 3 {
		t.Errorf("64 KiB frame took %d reads, want at most 3", cr.reads)
	}
	fr.Close()
}

// eofWithData returns the whole stream and io.EOF from a single Read.
type eofWithData struct{ data []byte }

func (e *eofWithData) Read(p []byte) (int, error) {
	n := copy(p, e.data)
	e.data = e.data[n:]
	if len(e.data) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// TestFrameReaderEOFAfterBufferedFrames checks that an end of stream
// arriving with the last bytes surfaces only after every buffered frame.
func TestFrameReaderEOFAfterBufferedFrames(t *testing.T) {
	withLeakCheck(t)
	wire, hdrs, bodies := frameStream(10, 20, 30)
	fr := NewFrameReader(&eofWithData{data: wire}, 0)
	drainFrames(t, fr, hdrs, bodies)
	fr.Close()

	// A frame cut short by the end of stream is an unexpected EOF, after
	// the whole frames before it.
	fr = NewFrameReader(&eofWithData{data: wire[:len(wire)-5]}, 0)
	for i := 0; i < 2; i++ {
		_, fb, err := fr.NextFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		fb.Release()
	}
	if _, _, err := fr.NextFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	fr.Close()
}

// splitReader serves a stream in chunks whose lengths come from a fuzzed
// pattern; a zero in the pattern injects a deadline error instead (never
// twice in a row, so the stream always advances).
type splitReader struct {
	data    []byte
	split   []byte
	i       int
	faulted bool
}

func (s *splitReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := len(s.data)
	if len(s.split) > 0 {
		b := int(s.split[s.i%len(s.split)])
		s.i++
		if b == 0 && !s.faulted {
			s.faulted = true
			return 0, os.ErrDeadlineExceeded
		}
		s.faulted = false
		n = b * b / 2
		if n == 0 {
			n = 1
		}
	}
	n = copy(p, s.data[:min(n, len(s.data))])
	s.data = s.data[n:]
	return n, nil
}

// FuzzFrameReader splits one valid frame stream at fuzz-chosen boundaries
// (with fuzz-placed deadline errors) and demands that NextFrame and Next
// both yield the stream's exact header/body sequence, then bare io.EOF.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{255})
	f.Add([]byte{0, 200, 7}, []byte{1, 0, 3})
	f.Fuzz(func(t *testing.T, sizes, split []byte) {
		if len(sizes) > 8 {
			sizes = sizes[:8]
		}
		ns := make([]int, len(sizes))
		for i, b := range sizes {
			ns[i] = int(b) * 80 // 0 to 20,400 bytes: both sides of directMin
		}
		wire, hdrs, bodies := frameStream(ns...)

		fr := NewFrameReader(&splitReader{data: wire, split: split}, 0)
		drainFrames(t, fr, hdrs, bodies)
		fr.Close()

		drainNext(t, NewFrameReader(&splitReader{data: wire, split: split}, 0), hdrs, bodies)
	})
}
