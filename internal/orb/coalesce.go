package orb

import (
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// This file is the write path of every ORB connection: the client mux send
// path and the server reply path both hand their frames to a coalescer.
// Senders hand the coalescer one framed GIOP message each and block until
// their frame reaches the connection; the first sender to find the writer
// idle becomes the flusher and writes every queued frame as one vectored
// write (group commit). The policy is adaptive with no timers: a lone
// caller's frame flushes immediately — the idle flusher takes a batch of one
// and writes it with a plain Write — while under contention frames pile up
// behind the in-progress write and the next flush drains them all, bounded
// by maxBatchFrames/maxBatchBytes. Blocking the sender (rather than copying
// the frame and returning) is load-bearing twice over: the frame bytes live
// in a pooled per-request scope that is reclaimed when the sender's handler
// returns, and oneway invocations report write errors synchronously.

// Batch bounds of one flush. A single frame larger than maxBatchBytes still
// flushes (alone): the bound caps batching, not frame size.
const (
	maxBatchFrames = 32
	maxBatchBytes  = 64 << 10
)

// Coalescing metrics, exported at /metrics with the compadres_ prefix.
// frames/flush — the syscall amortisation factor — is
// coalesce_frames_total / coalesce_flush_total; the histogram carries the
// distribution of batch sizes behind that mean.
var (
	coalesceFlushTotal  = telemetry.NewCounter("coalesce_flush_total")
	coalesceFramesTotal = telemetry.NewCounter("coalesce_frames_total")
	coalesceBatchFrames = telemetry.NewHistogram("coalesce_batch_frames")
)

// coalescer serialises writes to one connection through a flush queue.
// Frames flush strictly in enqueue order, so a sender's frame has been
// written exactly when the flushed-sequence counter passes the sequence it
// was enqueued at. After a write error the coalescer is dead: the error is
// sticky, queued frames are dropped (their senders get the error), and
// every later write fails fast — a partial frame has desynchronised GIOP
// framing, so the connection is unusable anyway.
type coalescer struct {
	conn transport.Conn
	// timeout, when non-nil, bounds each flush via the connection's write
	// deadline (the client passes its per-invoke timeout; the server passes
	// nil).
	timeout   func() time.Duration
	maxFrames int
	maxBytes  int

	mu       sync.Mutex
	cond     sync.Cond
	queue    [][]byte
	flushing bool
	head     uint64 // sequence of the last enqueued frame
	done     uint64 // sequence of the last flushed frame
	err      error  // sticky first write error
	batch    [][]byte
}

// newCoalescer builds a coalescer over conn whose flushes carry at most
// maxFrames frames and maxBytes bytes (connections pass maxBatchFrames and
// maxBatchBytes; tests pass small bounds).
func newCoalescer(conn transport.Conn, maxFrames, maxBytes int, timeout func() time.Duration) *coalescer {
	co := &coalescer{
		conn:      conn,
		timeout:   timeout,
		maxFrames: maxFrames,
		maxBytes:  maxBytes,
		queue:     make([][]byte, 0, maxFrames),
		batch:     make([][]byte, 0, maxFrames),
	}
	co.cond.L = &co.mu
	return co
}

// write enqueues one frame and blocks until it has been written or the
// coalescer has failed. The frame bytes are referenced, never copied, and
// are released before write returns — callers may reclaim them immediately.
// owner reports whether THIS call performed the failing flush: exactly one
// caller per wire fault sees owner=true, and only it may charge the fault
// to the breaker and fail the connection, preserving the mux invariant that
// one wire event counts one breaker failure however many senders it
// strands.
func (co *coalescer) write(frame []byte) (err error, owner bool) {
	co.mu.Lock()
	if co.err != nil {
		err = co.err
		co.mu.Unlock()
		return err, false
	}
	co.queue = append(co.queue, frame)
	co.head++
	seq := co.head
	for {
		if co.err != nil {
			err = co.err
			co.mu.Unlock()
			return err, false
		}
		if co.done >= seq {
			// Flushed — frames leave the queue strictly in enqueue order, so
			// the counter passing our sequence means our frame went out even
			// if a later flush failed.
			co.mu.Unlock()
			return nil, false
		}
		if co.flushing {
			co.cond.Wait()
			continue
		}
		// Writer idle: become the flusher. Take the longest queue prefix
		// within the batch bounds (always at least one frame, so an
		// over-bound frame still flushes alone) and write it outside the
		// lock as one vectored write; frames arriving meanwhile queue behind
		// the flushing flag and ride the next batch.
		take, bytes := 0, 0
		for take < len(co.queue) && take < co.maxFrames {
			if take > 0 && bytes+len(co.queue[take]) > co.maxBytes {
				break
			}
			bytes += len(co.queue[take])
			take++
		}
		batch := append(co.batch[:0], co.queue[:take]...)
		rest := copy(co.queue, co.queue[take:])
		for i := rest; i < len(co.queue); i++ {
			co.queue[i] = nil
		}
		co.queue = co.queue[:rest]
		co.flushing = true
		co.mu.Unlock()

		werr := co.flush(batch)
		// The batch was consumed (possibly resliced) by the vectored write;
		// drop the frame references before the senders reclaim their scopes.
		for i := range batch {
			batch[i] = nil
		}
		co.batch = batch[:0]

		co.mu.Lock()
		co.flushing = false
		if werr != nil {
			co.err = werr
			// Dead coalescer: unhook the unflushed frames so their scoped
			// buffers can be reclaimed; their senders wake to the sticky
			// error above.
			for i := range co.queue {
				co.queue[i] = nil
			}
			co.queue = co.queue[:0]
			co.cond.Broadcast()
			co.mu.Unlock()
			return werr, true
		}
		co.done += uint64(take)
		coalesceFlushTotal.Inc()
		coalesceFramesTotal.Add(int64(take))
		coalesceBatchFrames.Record(int64(take))
		co.cond.Broadcast()
		// Loop: if our own frame was beyond this batch, keep flushing (or
		// wait for a successor flusher) until the counter covers it.
	}
}

// flush writes one batch to the connection, bounded by the write deadline
// when one is configured. A batch of one — every lone caller's — is a plain
// Write: the vectored path costs a lone caller its net.Buffers conversion,
// an allocation per flush, and buys nothing for a single frame.
func (co *coalescer) flush(batch [][]byte) error {
	if co.timeout != nil {
		if t := co.timeout(); t > 0 {
			if wd, ok := co.conn.(writeDeadliner); ok {
				_ = wd.SetWriteDeadline(time.Now().Add(t))
			}
		}
	}
	if len(batch) == 1 {
		_, err := co.conn.Write(batch[0])
		return err
	}
	_, err := transport.WriteBuffers(co.conn, batch)
	return err
}
