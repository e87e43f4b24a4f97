package orb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/transport"
)

// gatedWriter is a scripted transport.Conn with the BuffersWriter
// capability: every flush parks until the test releases it, so the tests
// can deterministically pile senders into the coalescer's queue while a
// flush is "on the wire", and each flush is recorded as the whole batch it
// carried.
type gatedWriter struct {
	mu      sync.Mutex
	gate    chan struct{} // receive = permission for one flush
	batches [][][]byte    // frames carried by each flush
	failOn  int           // 1-based flush index to fail at; 0 = never
	failErr error
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{gate: make(chan struct{}, 64), failErr: errors.New("scripted write failure")}
}

func (w *gatedWriter) Read(p []byte) (int, error) { return 0, io.EOF }
func (w *gatedWriter) Close() error               { return nil }

func (w *gatedWriter) Write(p []byte) (int, error) {
	n, err := w.WriteBuffers([][]byte{p})
	return int(n), err
}

func (w *gatedWriter) WriteBuffers(bufs [][]byte) (int64, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := make([][]byte, len(bufs))
	for i, b := range bufs {
		cp[i] = append([]byte(nil), b...)
	}
	w.batches = append(w.batches, cp)
	if w.failOn != 0 && len(w.batches) >= w.failOn {
		return 0, w.failErr
	}
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}

// allow releases n flushes.
func (w *gatedWriter) allow(n int) {
	for i := 0; i < n; i++ {
		w.gate <- struct{}{}
	}
}

// flushSizes returns the frame count each flush carried.
func (w *gatedWriter) flushSizes() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]int, len(w.batches))
	for i, b := range w.batches {
		out[i] = len(b)
	}
	return out
}

// waitFor spins until cond holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatal("condition never reached")
}

// waitHead blocks until n frames have been enqueued in total.
func waitHead(t *testing.T, co *coalescer, n uint64) {
	t.Helper()
	waitFor(t, func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.head >= n
	})
}

// waitFlushing blocks until a flush is in progress.
func waitFlushing(t *testing.T, co *coalescer) {
	t.Helper()
	waitFor(t, func() bool {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.flushing
	})
}

// TestCoalescerLoneCallerImmediate pins the no-latency-tax half of the
// adaptive policy: a sender finding the writer idle flushes immediately, so
// sequential callers see one flush per frame and zero queueing.
func TestCoalescerLoneCallerImmediate(t *testing.T) {
	w := newGatedWriter()
	w.allow(64)
	co := newCoalescer(w, maxBatchFrames, maxBatchBytes, nil)
	for i := 0; i < 5; i++ {
		frame := []byte(fmt.Sprintf("frame-%d", i))
		if err, _ := co.write(frame); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	sizes := w.flushSizes()
	if len(sizes) != 5 {
		t.Fatalf("lone callers produced %d flushes, want 5 (one each)", len(sizes))
	}
	for i, n := range sizes {
		if n != 1 {
			t.Errorf("flush %d carried %d frames, want 1", i, n)
		}
	}
}

// TestCoalescerBatchesQueuedSenders pins the group-commit half: senders
// arriving while a flush is in progress queue up and go out together in the
// next vectored write, in enqueue order.
func TestCoalescerBatchesQueuedSenders(t *testing.T) {
	w := newGatedWriter()
	co := newCoalescer(w, maxBatchFrames, maxBatchBytes, nil)

	results := make(chan error, 3)
	go func() { err, _ := co.write([]byte("first")); results <- err }()
	waitFlushing(t, co)
	go func() { err, _ := co.write([]byte("second")); results <- err }()
	waitHead(t, co, 2)
	go func() { err, _ := co.write([]byte("third")); results <- err }()
	waitHead(t, co, 3)

	flushesBefore := coalesceFlushTotal.Value()
	w.allow(64) // release the wire
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	sizes := w.flushSizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 2 {
		t.Fatalf("flush sizes = %v, want [1 2] (lone head, then the queued pair)", sizes)
	}
	w.mu.Lock()
	batch := w.batches[1]
	w.mu.Unlock()
	if !bytes.Equal(batch[0], []byte("second")) || !bytes.Equal(batch[1], []byte("third")) {
		t.Errorf("second flush carried %q,%q — enqueue order violated", batch[0], batch[1])
	}
	if got := coalesceFlushTotal.Value() - flushesBefore; got != 2 {
		t.Errorf("coalesce_flush_total advanced by %d, want 2", got)
	}
}

// TestCoalescerMaxBatchFrames pins the batch bound: five queued frames
// behind a one-frame flush drain in ceil(5/2) batches when the frame bound
// is 2, never one giant write.
func TestCoalescerMaxBatchFrames(t *testing.T) {
	w := newGatedWriter()
	co := newCoalescer(w, 2, maxBatchBytes, nil)

	const extra = 5
	results := make(chan error, extra+1)
	go func() { err, _ := co.write([]byte("head")); results <- err }()
	waitFlushing(t, co)
	for i := 0; i < extra; i++ {
		i := i
		go func() { err, _ := co.write([]byte(fmt.Sprintf("q-%d", i))); results <- err }()
	}
	waitHead(t, co, extra+1)
	w.allow(64)
	for i := 0; i < extra+1; i++ {
		if err := <-results; err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	sizes := w.flushSizes()
	want := []int{1, 2, 2, 1}
	if len(sizes) != len(want) {
		t.Fatalf("flush sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("flush sizes = %v, want %v", sizes, want)
		}
	}
}

// TestCoalescerMaxBatchBytes pins the byte bound: frames stop joining a
// batch once it would exceed the byte bound, but an over-bound frame alone
// still flushes.
func TestCoalescerMaxBatchBytes(t *testing.T) {
	w := newGatedWriter()
	co := newCoalescer(w, maxBatchFrames, 10, nil)

	results := make(chan error, 4)
	go func() { err, _ := co.write([]byte("head")); results <- err }()
	waitFlushing(t, co)
	// 6 + 6 bytes > 10 → the pair must split; the 16-byte frame exceeds the
	// bound outright and must still go out (alone).
	go func() { err, _ := co.write([]byte("sixby1")); results <- err }()
	go func() { err, _ := co.write([]byte("sixby2")); results <- err }()
	go func() { err, _ := co.write([]byte("sixteen-bytes-xx")); results <- err }()
	waitHead(t, co, 4)
	w.allow(64)
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatalf("sender %d: %v", i, err)
		}
	}
	sizes := w.flushSizes()
	if len(sizes) != 4 {
		t.Fatalf("flush sizes = %v, want 4 flushes (byte bound splits the queue)", sizes)
	}
	for i, n := range sizes {
		if n != 1 {
			t.Errorf("flush %d carried %d frames, want 1 (10-byte bound)", i, n)
		}
	}
}

// TestCoalescerWriteErrorOwnership pins single-ownership of a failed flush:
// exactly one sender (the flusher) sees owner=true, every queued sender
// gets the same error with owner=false, and later writes fail fast.
func TestCoalescerWriteErrorOwnership(t *testing.T) {
	w := newGatedWriter()
	w.failOn = 1 // the first flush fails
	co := newCoalescer(w, maxBatchFrames, maxBatchBytes, nil)

	type res struct {
		err   error
		owner bool
	}
	results := make(chan res, 3)
	go func() { err, own := co.write([]byte("first")); results <- res{err, own} }()
	waitFlushing(t, co)
	go func() { err, own := co.write([]byte("second")); results <- res{err, own} }()
	go func() { err, own := co.write([]byte("third")); results <- res{err, own} }()
	waitHead(t, co, 3)
	w.allow(64)

	owners := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err == nil {
			t.Fatalf("sender %d: expected the scripted failure", i)
		}
		if !errors.Is(r.err, w.failErr) {
			t.Errorf("sender %d: error %v, want the scripted failure", i, r.err)
		}
		if r.owner {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d senders claimed ownership of the wire fault, want exactly 1", owners)
	}
	if err, owner := co.write([]byte("late")); err == nil || owner {
		t.Errorf("write after failure: (%v, %v), want sticky error without ownership", err, owner)
	}
	co.mu.Lock()
	left := len(co.queue)
	co.mu.Unlock()
	if left != 0 {
		t.Errorf("dead coalescer still holds %d queued frames", left)
	}
}

// TestCoalescedEchoEndToEnd runs a pipelined workload through default
// configurations — coalescing is every connection's write path, at BOTH ends
// (requests and replies batch) — and demands full correctness: every caller
// gets its own payload back, the pending table drains, and the coalescer's
// flush counter moves.
func TestCoalescedEchoEndToEnd(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	flushesBefore := coalesceFlushTotal.Value()
	const workers, rounds = 16, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				payload := []byte(fmt.Sprintf("w%d-r%d", w, r))
				got, err := cl.Invoke("echo", "echo", payload, sched.MinPriority+sched.Priority(w%31))
				if err != nil {
					errs[w] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				if !bytes.Equal(got, payload) {
					errs[w] = fmt.Errorf("round %d: cross-talk: sent %q got %q", r, payload, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("inflight = %d after all replies", got)
	}
	if coalesceFlushTotal.Value() == flushesBefore {
		t.Error("coalesce_flush_total did not advance: the coalesced path was not exercised")
	}
}

// TestCoalescedConnDeathFailsOnce is TestMuxConnDeathFailsAllPendingOnce
// with a clean close instead of a torn frame: a wire cut stranding a whole
// batch of coalesced senders must still count ONE breaker failure — the
// flush owner's — not one per blocked sender.
func TestCoalescedConnDeathFailsOnce(t *testing.T) {
	net := transport.NewInproc()
	rs := newRawServer(t, net)
	const callers = 8
	rs.serve(func(conn transport.Conn) {
		for i := 0; i < callers; i++ {
			if _, req := readRequest(t, conn); req == nil {
				return
			}
		}
		conn.Close()
	})
	cl := dial(t, net, rs.addr, ClientConfig{
		Resilience: &ResilienceConfig{BreakerThreshold: 2, MaxRetries: 0},
	})

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Invoke("echo", "echo", []byte("doomed"), sched.NormPriority)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: expected a wire error, got success", i)
		}
	}
	if got := cl.Inflight(); got != 0 {
		t.Errorf("inflight = %d after connection death", got)
	}
	if st := cl.stripes[0].brk.State(); st != breakerClosed {
		t.Errorf("breaker state = %d after one wire event", st)
	}
}

// TestCoalescerLoneCallerAllocFree pins the steady-state write path's
// allocation budget: a lone caller's flush — a batch of one on an inproc
// connection, the net.Conn case — must not allocate. The vectored
// conversion escapes to the heap, so a batch of one must not take it.
func TestCoalescerLoneCallerAllocFree(t *testing.T) {
	net := transport.NewInproc()
	ln, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		buf := make([]byte, 512)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	co := newCoalescer(conn, maxBatchFrames, maxBatchBytes, nil)
	frame := make([]byte, 256)
	if err, _ := co.write(frame); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err, _ := co.write(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("lone-caller flush allocates %.1f times per write, want 0", allocs)
	}
}
