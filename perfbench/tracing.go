package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanInvoke     spanKind = iota // orb.Client.Invoke, caller side
	spanServant                    // the servant call, server side
	spanRead                       // one transport Read
	spanWrite                      // one transport Write or vectored write
	spanZenInvoke                  // rtzen.Client.Invoke
	spanZenServant                 // the servant call under the RTZen server
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"invoke", "servant", "conn.read", "conn.write", "rtzen.invoke", "rtzen.servant"}

// span is one timed boundary crossing. Spans of one call share its id;
// connection spans outside lockstep carry id 0, because several calls
// share each read and write there.
type span struct {
	call       uint64
	start, end int64
	bytes      int32
	kind       spanKind
}

// spanLog keeps spans in memory until the run ends. Writers claim a slot
// with one atomic add; spans past the capacity are counted, not kept.
type spanLog struct {
	clk     *clock
	on      atomic.Bool   // spans are recorded only while on
	current atomic.Uint64 // lockstep: the call now on the wire
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(clk *clock, capacity int) *spanLog {
	return &spanLog{clk: clk, spans: make([]span, capacity)}
}

func (l *spanLog) add(s span) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = s
}

// recorded returns the spans kept so far.
func (l *spanLog) recorded() []span {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// writeFile writes the kept spans as text, one per line:
// call kind start_ns end_ns bytes.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.recorded() {
		if s.end == 0 {
			continue
		}
		fmt.Fprintf(w, "%d %s %d %d %d\n", s.call, spanNames[s.kind], s.start, s.end, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callID reads the call identifier every benchmark payload carries in its
// first eight bytes.
func callID(payload []byte) uint64 {
	if len(payload) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(payload)
}

// stampCallID writes id into a payload's first eight bytes.
func stampCallID(payload []byte, id uint64) { binary.LittleEndian.PutUint64(payload, id) }

// tracedServant records a span around each servant call.
type tracedServant struct {
	inner corba.Servant
	log   *spanLog
	kind  spanKind
}

func (s tracedServant) Invoke(op string, in []byte) ([]byte, error) {
	if !s.log.on.Load() {
		return s.inner.Invoke(op, in)
	}
	id := callID(in)
	start := s.log.clk.now()
	out, err := s.inner.Invoke(op, in)
	s.log.add(span{call: id, start: start, end: s.log.clk.now(), kind: s.kind})
	return out, err
}

// connStats counts transport operations through a tracedNet.
type connStats struct {
	reads, writes, bytes, writeNs atomic.Int64
}

type connTotals struct{ reads, writes, bytes, writeNs int64 }

func (c *connStats) snapshot() connTotals {
	return connTotals{c.reads.Load(), c.writes.Load(), c.bytes.Load(), c.writeNs.Load()}
}

func (a connTotals) sub(b connTotals) connTotals {
	return connTotals{a.reads - b.reads, a.writes - b.writes, a.bytes - b.bytes, a.writeNs - b.writeNs}
}

// tracedNet wraps a transport.Network, counting and timing every
// connection operation on both ends.
type tracedNet struct {
	inner transport.Network
	log   *spanLog
	stats connStats
}

func (n *tracedNet) Listen(addr string) (transport.Listener, error) {
	ln, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return tracedListener{Listener: ln, net: n}, nil
}

func (n *tracedNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, net: n}, nil
}

type tracedListener struct {
	transport.Listener
	net *tracedNet
}

func (l tracedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, net: l.net}, nil
}

// tracedConn passes every capability of the wrapped connection through —
// vectored writes and deadlines — so the ORBs take the same write path,
// and make the same system calls, as on the bare connection.
type tracedConn struct {
	inner transport.Conn
	net   *tracedNet
}

func (c *tracedConn) record(kind spanKind, start int64, n int) {
	l := c.net.log
	if l.on.Load() {
		l.add(span{call: l.current.Load(), start: start, end: l.clk.now(), bytes: int32(n), kind: kind})
	}
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.net.log.clk.now()
	n, err := c.inner.Read(p)
	c.net.stats.reads.Add(1)
	c.net.stats.bytes.Add(int64(n))
	c.record(spanRead, start, n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.net.log.clk.now()
	n, err := c.inner.Write(p)
	c.wrote(start, int64(n))
	return n, err
}

// WriteBuffers keeps a coalesced batch one vectored write on the wrapped
// connection.
func (c *tracedConn) WriteBuffers(bufs [][]byte) (int64, error) {
	start := c.net.log.clk.now()
	n, err := transport.WriteBuffers(c.inner, bufs)
	c.wrote(start, n)
	return n, err
}

func (c *tracedConn) wrote(start, n int64) {
	s := &c.net.stats
	s.writes.Add(1)
	s.bytes.Add(n)
	s.writeNs.Add(c.net.log.clk.now() - start)
	c.record(spanWrite, start, int(n))
}

func (c *tracedConn) Close() error { return c.inner.Close() }

type deadliner interface{ SetDeadline(time.Time) error }
type readDeadliner interface{ SetReadDeadline(time.Time) error }
type writeDeadliner interface{ SetWriteDeadline(time.Time) error }

func (c *tracedConn) SetDeadline(t time.Time) error {
	if d, ok := c.inner.(deadliner); ok {
		return d.SetDeadline(t)
	}
	return nil
}

func (c *tracedConn) SetReadDeadline(t time.Time) error {
	if d, ok := c.inner.(readDeadliner); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

func (c *tracedConn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.inner.(writeDeadliner); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}
