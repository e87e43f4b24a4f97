package transport

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func exchange(t *testing.T, n Network, addr string) {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		if _, err := c.Write([]byte("pong!")); err != nil {
			t.Errorf("server write: %v", err)
		}
	}()

	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong!" {
		t.Errorf("reply = %q", buf)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	exchange(t, TCP{}, "127.0.0.1:0")
}

func TestInprocRoundTrip(t *testing.T) {
	exchange(t, NewInproc(), "")
}

func TestInprocAddresses(t *testing.T) {
	n := NewInproc()
	l1, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := n.Listen("custom")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l1.Addr() == l2.Addr() {
		t.Error("addresses collide")
	}
	if _, err := n.Listen("custom"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("duplicate bind err = %v, want ErrAddrInUse", err)
	}
	if _, err := n.Dial("nowhere"); !errors.Is(err, ErrNoListener) {
		t.Errorf("dial to unbound address err = %v, want ErrNoListener", err)
	}
}

// TestOpErrorInspectable pins the wrapped-error contract: transport failures
// carry op and addr, unwrap to their sentinel cause, and land in the
// telemetry fault log.
func TestOpErrorInspectable(t *testing.T) {
	n := NewInproc()
	_, before := telemetry.Default.Faults()
	_, err := n.Dial("ghost")
	if err == nil {
		t.Fatal("dial to unbound address accepted")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OpError", err)
	}
	if oe.Op != "dial" || oe.Addr != "ghost" || !errors.Is(oe, ErrNoListener) {
		t.Errorf("OpError = %+v", oe)
	}
	faults, total := telemetry.Default.Faults()
	if total <= before || len(faults) == 0 {
		t.Fatal("dial failure not recorded as a telemetry fault")
	}
	last := faults[len(faults)-1]
	if last.Label != "transport.dial" {
		t.Errorf("fault label = %q", last.Label)
	}
}

// TestTCPDialFailureWrapped covers the real-network dial error path: nothing
// listens on the ephemeral port just released.
func TestTCPDialFailureWrapped(t *testing.T) {
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	_, err = TCP{}.Dial(addr)
	if err == nil {
		t.Skip("port was rebound between close and dial")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err %T is not *OpError", err)
	}
	if oe.Op != "dial" || oe.Addr != addr {
		t.Errorf("OpError = %+v", oe)
	}
}

// TestPeerCloseMidFrame checks the reader-side contract the ORBs rely on: a
// connection dropped mid-frame surfaces io.ErrUnexpectedEOF through the
// giop reader's wrapping (verified here at the transport level by closing
// after a partial write).
func TestPeerCloseMidFrame(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		accepted <- c
	}()
	c, err := n.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	go func() {
		// Half a would-be frame, then gone.
		_, _ = c.Write([]byte{1, 2, 3})
		c.Close()
	}()
	buf := make([]byte, 8)
	if _, err := io.ReadFull(server, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short read err = %v, want io.ErrUnexpectedEOF", err)
	}
	server.Close()
}

func TestInprocClose(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("accept after close err = %v", err)
	}
	// Close is idempotent.
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// Dial after close fails.
	if _, err := n.Dial("x"); err == nil {
		t.Error("dial to closed listener accepted")
	}
	// The address is reusable.
	l2, err := n.Listen("x")
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	l2.Close()
}

// TestInprocCloseDropsQueuedConns dials a listener that never accepts and
// then closes it: the queued connection must be closed with the listener,
// so the dialer's read ends instead of waiting on a peer nobody serves.
func TestInprocCloseDropsQueuedConns(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("q")
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Dial("q")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		read <- err
	}()
	select {
	case err := <-read:
		if !errors.Is(err, io.EOF) {
			t.Errorf("read from a dropped queued conn: %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued connection outlived its closed listener")
	}
}

func TestTCPListenerClose(t *testing.T) {
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("accept after close err = %v", err)
	}
}
