package giop

import (
	"fmt"
	"io"
)

// stageSize is the capacity of a FrameReader's read-ahead staging buffer.
// One Read into it typically carries the header and body of every small
// frame the peer coalesced into one write, so a pipelined connection pays
// a fraction of a read syscall per frame instead of two.
const stageSize = 16 << 10

// directMin is the body size from which the remainder of a body is read
// straight from the stream into its destination instead of through the
// staging buffer: copying a large body twice would cost more than the
// syscall it saves.
const directMin = stageSize / 2

// FrameReader reads framed GIOP messages from one stream, either through a
// single reusable scratch buffer (Next) or into refcounted pooled FrameBufs
// (NextFrame). Both demultiplexing endpoints — the client's reply reactor
// and the server's per-connection read loop — sit in a tight
// frame-at-a-time loop over one connection; FrameReader gives that loop a
// stable allocation profile and batches its reads.
//
// Reads go through a small staging buffer, allocated on first use: one
// Read takes whatever the stream has ready, and the header and every whole
// frame in it are served from the buffer without touching the stream
// again. A small body is copied from there into its destination; a body of
// at least directMin bytes is read straight from the stream into its
// destination once the staged part is used up.
//
// Both calls are resumable: a deadline expiry or injected short read in the
// middle of a header or body leaves the partial bytes (and anything staged)
// in the reader, and the following call continues exactly where the stream
// stopped. That lets a reactor poll with read deadlines (to
// notice shutdown) without ever tearing a half-received frame. A stream
// error that arrives together with data is held back until every frame
// buffered before it has been returned. Close releases a partially-filled
// frame and the staging buffer so an abandoned reader leaks nothing.
//
// A reader serves either Next or NextFrame for its whole life; mixing the
// two mid-frame is unsupported.
type FrameReader struct {
	r       io.Reader
	maxBody uint32
	buf     []byte // Next's body scratch

	// Read-ahead staging: stage[sr:sw] holds bytes read from r and not yet
	// consumed; serr is a read error that arrived with data, surfaced once
	// those bytes run out.
	stage  []byte
	sr, sw int
	serr   error

	// Resumable frame state: header bytes accumulated so far, the parsed
	// header, the body being filled (nil between frames) and its fill
	// count, and — for NextFrame — the frame that owns the body.
	hdr  [HeaderSize]byte
	hn   int
	h    Header
	body []byte
	bn   int
	cur  *FrameBuf
}

// NewFrameReader returns a FrameReader over r enforcing maxBody on frame
// bodies; zero (or anything over MaxMessageSize) selects MaxMessageSize.
func NewFrameReader(r io.Reader, maxBody uint32) *FrameReader {
	if maxBody == 0 || maxBody > MaxMessageSize {
		maxBody = MaxMessageSize
	}
	return &FrameReader{r: r, maxBody: maxBody}
}

// Next reads one framed message, blocking until a full frame arrives, the
// stream errors, or a deadline on the underlying connection expires. An
// over-limit frame fails with ErrTooLarge before any body byte is consumed,
// exactly as ReadMessageLimited does.
//
// Ownership contract: the returned body aliases the reader's internal
// scratch buffer and is valid only until the following Next call; a caller
// that hands the bytes to another goroutine, or needs them past the next
// frame, must copy them first (or use NextFrame, which makes the lifetime
// explicit through refcounting).
func (fr *FrameReader) Next() (Header, []byte, error) {
	if fr.body == nil {
		h, err := fr.header()
		if err != nil {
			return Header{}, nil, err
		}
		if cap(fr.buf) < int(h.Size) {
			// Grow once to the body's size class so every later frame of
			// that class reuses the scratch.
			fr.buf = make([]byte, frameClassCap(int(h.Size)))
		}
		fr.h = h
		fr.body, fr.bn = fr.buf[:h.Size], 0
	}
	if err := fr.fillBody(); err != nil {
		return Header{}, nil, err
	}
	body := fr.body
	fr.body = nil
	return fr.h, body, nil
}

// NextFrame reads one framed message into a pooled FrameBuf and returns it
// with one reference owned by the caller, who must Release it (directly or
// through whoever the frame is handed to) exactly once. Decoded views that
// alias the frame go stale at that Release.
//
// If the read fails partway through a frame — a read deadline fired, or a
// fault-injected short read — the reader keeps the partial header/body and
// the next call resumes filling the same frame. A clean close before any
// byte of a frame arrives surfaces as bare io.EOF, matching
// ReadMessageLimited.
func (fr *FrameReader) NextFrame() (Header, *FrameBuf, error) {
	if fr.cur == nil {
		h, err := fr.header()
		if err != nil {
			return Header{}, nil, err
		}
		fr.h = h
		fr.cur = AcquireFrame(int(h.Size))
		fr.body, fr.bn = fr.cur.buf[:h.Size], 0
	}
	if err := fr.fillBody(); err != nil {
		return Header{}, nil, err
	}
	fb := fr.cur
	fb.setLen(int(fr.h.Size))
	fr.cur, fr.body = nil, nil
	return fr.h, fb, nil
}

// header accumulates and parses the next 12-byte header, enforcing the
// body bound. A clean end of stream before any header byte is bare io.EOF.
func (fr *FrameReader) header() (Header, error) {
	for fr.hn < HeaderSize {
		fr.hn += fr.take(fr.hdr[fr.hn:])
		if fr.hn == HeaderSize {
			break
		}
		if err := fr.fill(); err != nil {
			if err == io.EOF {
				if fr.hn == 0 {
					// Clean close between frames: callers match on bare EOF.
					return Header{}, io.EOF
				}
				err = io.ErrUnexpectedEOF
			}
			return Header{}, fmt.Errorf("giop: header: %w", err)
		}
	}
	fr.hn = 0
	h, err := ParseHeader(fr.hdr[:])
	if err != nil {
		return Header{}, err
	}
	if h.Size > fr.maxBody {
		return Header{}, fmt.Errorf("%w: %d-byte body over the %d-byte endpoint bound", ErrTooLarge, h.Size, fr.maxBody)
	}
	return h, nil
}

// fillBody completes fr.body from the staged bytes and then the stream.
func (fr *FrameReader) fillBody() error {
	for {
		fr.bn += fr.take(fr.body[fr.bn:])
		if fr.bn == len(fr.body) {
			return nil
		}
		var err error
		if len(fr.body) >= directMin {
			var n int
			n, err = fr.read(fr.body[fr.bn:])
			fr.bn += n
		} else {
			err = fr.fill()
		}
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("giop: body: %w", err)
		}
	}
}

// take moves staged bytes into dst and reports how many it moved.
func (fr *FrameReader) take(dst []byte) int {
	n := copy(dst, fr.stage[fr.sr:fr.sw])
	fr.sr += n
	return n
}

// fill refills the staging buffer, which its callers have drained, with one
// read.
func (fr *FrameReader) fill() error {
	if fr.stage == nil {
		fr.stage = make([]byte, stageSize)
	}
	n, err := fr.read(fr.stage)
	fr.sr, fr.sw = 0, n
	return err
}

// read does one Read into p. It returns the error to surface now: one held
// back from an earlier read, or this read's error when the read brought no
// bytes. An error that arrives with bytes is held until those bytes are
// consumed.
func (fr *FrameReader) read(p []byte) (int, error) {
	if err := fr.serr; err != nil {
		fr.serr = nil
		return 0, err
	}
	n, err := fr.r.Read(p)
	if n > 0 {
		fr.serr = err
		return n, nil
	}
	return 0, err
}

// Close releases any partially-received frame held by an interrupted
// NextFrame and drops the staging buffer with whatever it still holds. A
// reader being abandoned mid-stream must be closed, or the partial frame
// never returns to its pool (and trips the leak detector in tests).
func (fr *FrameReader) Close() {
	if fr.cur != nil {
		fr.cur.Release()
		fr.cur = nil
	}
	fr.body = nil
	fr.hn, fr.bn = 0, 0
	fr.stage, fr.sr, fr.sw, fr.serr = nil, 0, 0, nil
}
