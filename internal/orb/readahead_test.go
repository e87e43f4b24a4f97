package orb

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/sched"
	"repro/internal/transport"
)

// readCountNet wraps a network so the test can see every Read its dialled
// connections make: a count, and a signal each time a Read begins.
type readCountNet struct {
	transport.Network
	reads   atomic.Int64
	entered chan struct{}
}

func (n *readCountNet) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &readCountConn{Conn: c, n: n}, nil
}

type readCountConn struct {
	transport.Conn
	n *readCountNet
}

func (c *readCountConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	select {
	case c.n.entered <- struct{}{}:
	default:
	}
	return c.Conn.Read(p)
}

// TestLeaderFollowerStagedReply pins read-ahead across a leader handoff:
// two replies arrive in one read, the leader's first. The leader returns
// with its own reply and leaves the follower's staged in the connection's
// FrameReader; the follower, taking the token, must complete from the
// staged bytes without another socket read — the server never writes
// again, so a follower that touched the socket would hang.
func TestLeaderFollowerStagedReply(t *testing.T) {
	inproc := transport.NewInproc()
	rs := newRawServer(t, inproc)
	quiet := make(chan struct{})
	rs.serve(func(conn transport.Conn) {
		o1, r1 := readRequest(t, conn)
		o2, r2 := readRequest(t, conn)
		if r1 == nil || r2 == nil {
			return
		}
		wire := giop.MarshalReply(nil, o1, &giop.Reply{RequestID: r1.RequestID, Payload: r1.Payload})
		wire = giop.MarshalReply(wire, o2, &giop.Reply{RequestID: r2.RequestID, Payload: r2.Payload})
		if _, err := conn.Write(wire); err != nil {
			t.Errorf("raw server write: %v", err)
		}
		<-quiet // hold the connection open and silent
	})
	cn := &readCountNet{Network: inproc, entered: make(chan struct{}, 1)}
	cl := dial(t, cn, rs.addr, ClientConfig{Synchronous: true})
	t.Cleanup(func() { close(quiet) })
	if !cl.leaderFollower {
		t.Fatal("synchronous client is not in leader/follower mode")
	}

	results := make(chan error, 2)
	call := func(payload string) {
		got, err := cl.Invoke("echo", "echo", []byte(payload), sched.NormPriority)
		if err == nil && string(got) != payload {
			err = fmt.Errorf("got %q, want %q", got, payload)
		}
		results <- err
	}
	go call("leader")
	<-cn.entered // the first caller holds the token and is blocked reading
	go call("follower")
	for i := 0; i < 2; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller is stuck: the staged reply was not served")
		}
	}
	if n := cn.reads.Load(); n != 1 {
		t.Errorf("two replies took %d socket reads, want 1", n)
	}
}
