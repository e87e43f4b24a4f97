package orb

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// serverSpanLabel marks the server-side request-processing span.
var serverSpanLabel = telemetry.Label("orb.server.request")

// ServerConfig parameterises a Compadres ORB server.
type ServerConfig struct {
	// Network and Addr select where to listen.
	Network transport.Network
	Addr    string
	// MaxMessage bounds a request body; zero selects DefaultMaxMessage.
	MaxMessage int
	// ScopePoolCount is how many RequestProcessing scopes to pre-create.
	// Request scopes always come from a growable pool (the paper's scope
	// pool optimisation); zero pre-creates one and lets the pool grow to its
	// steady-state size on demand.
	ScopePoolCount int
	// Synchronous dispatches ports on the reading thread instead of port
	// thread pools.
	Synchronous bool
	// MsgPoolCapacity overrides the per-type message pool capacity.
	MsgPoolCapacity int
	// Concurrency bounds how many requests one connection processes at
	// once (the RequestProcessing pool width). Pipelined clients keep that
	// many servant invocations in flight; replies go out in completion
	// order, not arrival order. Zero selects DefaultConcurrency.
	Concurrency int
	// Overload opts the server into closed-loop overload control (see
	// internal/overload): every request is classified by its tenant service
	// context and admitted, credited, or shed before demarshalling; admitted
	// requests queue on a tenant-fair port (DRR across tenant classes within
	// each priority band, EDF within a class) and their completion latency
	// drives the AIMD in-flight limit and the brown-out ladder. Nil (the
	// default) keeps the uncontrolled dispatch path bit-for-bit.
	Overload *overload.Controller
	// RequestDeadline, with Overload set, stamps every admitted request with
	// a relative queueing deadline: work still queued past it is shed at
	// dequeue (counted as deadline_shed_total, answered with a shed reply)
	// instead of executing late. Zero stamps no deadline.
	RequestDeadline time.Duration
}

// DefaultConcurrency is the per-connection request-processing width used
// when ServerConfig.Concurrency is zero. It is sized so the default
// message-pool capacity comfortably covers queued plus in-process requests.
const DefaultConcurrency = 8

// Server is the component-structured ORB server of Fig. 10 (right):
// ORB → POA/Acceptor → per-connection Transport → per-request
// RequestProcessing.
type Server struct {
	app    *core.App
	poa    *core.Component
	ln     transport.Listener
	net    transport.Network // the listen network, for the collocation registry
	maxMsg int

	// servants is copy-on-write: lookups (per request, keyed by the raw
	// ObjectKey bytes) read a plain map through one atomic load, which lets
	// the compiler elide the []byte→string conversion; registration swaps in
	// a fresh copy under mu.
	servants atomic.Pointer[map[string]corba.Servant]

	// locateFwd, when set, answers Locate probes for keys with no local
	// servant: a non-empty address list becomes a LocateObjectForward reply.
	// This is how a group directory redirects clients to live replicas.
	locateFwd atomic.Pointer[func(key []byte) []string]

	// retiring is the copy-on-write set of object keys whose servants were
	// unregistered by a drain: stragglers addressing them get a shed reply
	// with a retry-after hint (pointing them at their directory's surviving
	// replicas) instead of the terminal ErrNoServant.
	retiring atomic.Pointer[map[string]struct{}]

	// inflight counts dispatched-but-not-recycled requests across every
	// connection; Drain polls it to zero.
	inflight atomic.Int64

	mu      sync.Mutex
	conns   []*serverConn
	handles []*core.Handle
	connSeq atomic.Uint64
	closed  atomic.Bool
	wg      sync.WaitGroup

	threading   core.Threading
	repPool     *memory.ScopePool
	concurrency int

	// ctrl is the overload controller (nil = uncontrolled); reqDeadline the
	// queueing deadline stamped on admitted requests when ctrl is set.
	ctrl        *overload.Controller
	reqDeadline time.Duration
}

// serverConn is the per-connection state owned by a Transport instance.
type serverConn struct {
	conn transport.Conn
	co   *coalescer // serialises reply writes
}

// write sends one framed message through the reply coalescer, blocking
// until a flush covers the frame — the reply buffer lives in a pooled
// request scope reclaimed when the handler returns.
func (sc *serverConn) write(b []byte) error {
	err, _ := sc.co.write(b)
	return err
}

// NewServer builds the server component structure and binds the listener.
// Call Serve (or ServeBackground) to start accepting.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("orb: nil network")
	}
	maxMsg := cfg.MaxMessage
	if maxMsg == 0 {
		maxMsg = DefaultMaxMessage
	}
	rpSize := int64(4*maxMsg + 8192)
	concurrency := cfg.Concurrency
	if concurrency <= 0 {
		concurrency = DefaultConcurrency
	}

	appCfg := core.AppConfig{Name: "CompadresORBServer", ImmortalSize: 1 << 20}
	if cfg.MsgPoolCapacity != 0 {
		appCfg.MsgPoolCapacity = cfg.MsgPoolCapacity
	} else if need := 3*concurrency + 8; need > core.DefaultMsgPoolCapacity {
		// A connection can hold queue (2×concurrency) plus in-process
		// (concurrency) requests outstanding; the message pool must cover
		// that or the reader loop sheds connections under pipelined load.
		appCfg.MsgPoolCapacity = need
	}
	appCfg.ScopePools = []core.ScopePoolSpec{
		// Level 3 holds the RequestProcessing scopes (ORB is level 0, POA 1,
		// Transport 2).
		{Level: 3, AreaSize: rpSize, Count: max(cfg.ScopePoolCount, 1), Grow: true},
	}
	app, err := core.NewApp(appCfg)
	if err != nil {
		return nil, err
	}

	// Reply buffers live in pooled per-request scopes nested under
	// RequestProcessing, so pipelined requests cannot exhaust the
	// component's fixed region.
	repPool, err := app.Model().NewScopePool(memory.ScopePoolConfig{
		Name:     "orb.server.reply",
		AreaSize: int64(2*maxMsg + 4096),
		Count:    4,
		Grow:     true,
	})
	if err != nil {
		app.Stop()
		return nil, err
	}

	srv := &Server{
		app:         app,
		maxMsg:      maxMsg,
		threading:   core.ThreadingShared,
		repPool:     repPool,
		concurrency: concurrency,
		ctrl:        cfg.Overload,
		reqDeadline: cfg.RequestDeadline,
	}
	if cfg.Synchronous {
		srv.threading = core.ThreadingSynchronous
	}

	ln, err := cfg.Network.Listen(cfg.Addr)
	if err != nil {
		app.Stop()
		return nil, err
	}
	srv.ln = ln

	_, err = app.NewImmortalComponent("ORB", func(c *core.Component) error {
		return c.DefineChild(core.ChildDef{
			Name:       "POA",
			MemorySize: 1 << 16,
			Persistent: true,
			Setup: func(poa *core.Component) error {
				srv.poa = poa
				return nil
			},
		})
	})
	if err != nil {
		ln.Close()
		app.Stop()
		return nil, err
	}
	if err := app.Start(); err != nil {
		ln.Close()
		app.Stop()
		return nil, err
	}
	// Instantiate the POA/Acceptor (level-2 scope in the paper's counting)
	// and keep it pinned for the server's lifetime.
	h, err := app.Component("ORB").SMM().Connect("POA")
	if err != nil {
		ln.Close()
		app.Stop()
		return nil, err
	}
	srv.mu.Lock()
	srv.handles = append(srv.handles, h)
	srv.mu.Unlock()
	// Publish the endpoint to the process-local collocation registry
	// (local.go): a Collocate-enabled client in this process dialling this
	// network+address invokes servants directly.
	srv.net = cfg.Network
	registerLocal(srv.net, ln.Addr(), srv)
	return srv, nil
}

// RegisterServant binds a servant to an object key.
func (s *Server) RegisterServant(key string, sv corba.Servant) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var old map[string]corba.Servant
	if p := s.servants.Load(); p != nil {
		old = *p
	}
	m := make(map[string]corba.Servant, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[key] = sv
	s.servants.Store(&m)
	s.setRetiringLocked(key, false)
}

// UnregisterServant unbinds a servant and marks its key retiring: requests
// already queued (or racing the unbind) are answered with a retry-after
// shed reply instead of ErrNoServant, so a draining replica's stragglers
// re-route through their directory rather than surfacing errors. Pair with
// Drain to wait out the in-flight tail.
func (s *Server) UnregisterServant(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.servants.Load()
	if old == nil {
		s.setRetiringLocked(key, true)
		return
	}
	if _, ok := (*old)[key]; !ok {
		s.setRetiringLocked(key, true)
		return
	}
	m := make(map[string]corba.Servant, len(*old)-1)
	for k, v := range *old {
		if k != key {
			m[k] = v
		}
	}
	s.servants.Store(&m)
	s.setRetiringLocked(key, true)
}

// setRetiringLocked adds or removes key on the copy-on-write retiring set.
// Called with s.mu held.
func (s *Server) setRetiringLocked(key string, retiring bool) {
	var old map[string]struct{}
	if p := s.retiring.Load(); p != nil {
		old = *p
	}
	if _, ok := old[key]; ok == retiring {
		return
	}
	m := make(map[string]struct{}, len(old)+1)
	for k := range old {
		m[k] = struct{}{}
	}
	if retiring {
		m[key] = struct{}{}
	} else {
		delete(m, key)
	}
	s.retiring.Store(&m)
}

// isRetiring reports whether key was unregistered by a drain.
func (s *Server) isRetiring(key []byte) bool {
	p := s.retiring.Load()
	if p == nil {
		return false
	}
	_, ok := (*p)[string(key)]
	return ok
}

// Inflight returns the dispatched-but-not-completed request count.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// Drain waits — bounded by timeout, zero selecting one second — for every
// dispatched request to complete: queued, in-servant, and writing-reply
// work all count. It does not stop the listener or refuse new requests;
// the caller removes the server from its directory (and unregisters
// retiring servants) first, so the tail it waits on is finite.
func (s *Server) Drain(timeout time.Duration) error {
	if timeout == 0 {
		timeout = time.Second
	}
	deadline := time.Now().Add(timeout)
	for s.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("orb server: drain: %d requests still in flight after %v",
				s.inflight.Load(), timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// SetLocateForwarder installs fn, consulted by the Locate path when no local
// servant matches the probed key: a non-empty return becomes a
// LocateObjectForward reply carrying those addresses (the forwarding
// references of §Cluster). fn runs on connection reader threads and must be
// safe for concurrent use; the key slice is only valid for the call.
func (s *Server) SetLocateForwarder(fn func(key []byte) []string) {
	s.locateFwd.Store(&fn)
}

// locateStatus answers one Locate probe: a local servant is OBJECT_HERE, a
// forwarder hit is OBJECT_FORWARD with the group's addresses, anything else
// UNKNOWN_OBJECT.
func (s *Server) locateStatus(key []byte) (giop.LocateStatus, []string) {
	if _, ok := s.servant(key); ok {
		return giop.LocateObjectHere, nil
	}
	if p := s.locateFwd.Load(); p != nil {
		if addrs := (*p)(key); len(addrs) > 0 {
			return giop.LocateObjectForward, addrs
		}
	}
	return giop.LocateUnknownObject, nil
}

// servant resolves an object key without copying it to a string on the heap.
func (s *Server) servant(key []byte) (corba.Servant, bool) {
	p := s.servants.Load()
	if p == nil {
		return nil, false
	}
	sv, ok := (*p)[string(key)]
	return sv, ok
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr() }

// App exposes the underlying component application.
func (s *Server) App() *core.App { return s.app }

// ServeBackground starts the accept loop on its own goroutine — the
// POA/Acceptor component "listens to and waits for client request
// messages".
func (s *Server) ServeBackground() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
}

// wireErr normalises a raw transport failure into a *transport.OpError so
// errors.Is(err, transport.ErrClosed) and errors.As with *transport.OpError
// behave uniformly whichever network produced it; errors already wrapped
// pass through unchanged.
func wireErr(op, addr string, err error) error {
	var oe *transport.OpError
	if errors.As(err, &oe) {
		return err
	}
	return &transport.OpError{Op: op, Addr: addr, Err: err}
}

// cleanClose reports whether err is routine connection/listener teardown
// rather than an abrupt failure worth a fault record.
func cleanClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, transport.ErrClosed)
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// A closed listener is normal shutdown; anything else is a
			// fault worth recording before the loop exits.
			if !cleanClose(err) && !s.closed.Load() {
				telemetry.RecordFault("orb.server.accept", wireErr("accept", s.ln.Addr(), err))
			}
			return
		}
		if s.closed.Load() {
			conn.Close()
			return
		}
		if err := s.addConnection(conn); err != nil {
			conn.Close()
		}
	}
}

// addConnection builds the per-connection Transport component (a scoped
// child of the POA) and pins it open for the connection's lifetime.
func (s *Server) addConnection(conn transport.Conn) error {
	seq := s.connSeq.Add(1)
	sc := &serverConn{conn: conn, co: newCoalescer(conn, maxBatchFrames, maxBatchBytes, nil)}
	s.mu.Lock()
	s.conns = append(s.conns, sc)
	s.mu.Unlock()

	name := fmt.Sprintf("Transport%d", seq)
	if err := s.poa.DefineChild(core.ChildDef{
		Name:       name,
		MemorySize: int64(8*s.maxMsg + 32768),
		Persistent: true,
		Setup:      s.transportSetup(sc),
	}); err != nil {
		return err
	}
	h, err := s.poa.SMM().Connect(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.handles = append(s.handles, h)
	s.mu.Unlock()
	return nil
}

// transportSetup wires one Transport instance: the Out port feeding its
// RequestProcessing child and the reader loop that frames GIOP requests.
func (s *Server) transportSetup(sc *serverConn) func(*core.Component) error {
	return func(tc *core.Component) error {
		tSMM := tc.SMM()
		toRP, err := core.AddOutPort(tc, tSMM, core.OutPortConfig{
			Name: "toRP", Type: requestType, Dests: []string{"RequestProcessing.request"},
		})
		if err != nil {
			return err
		}
		if s.ctrl != nil && s.reqDeadline > 0 {
			// Stamp every admitted request's queueing deadline; the fair
			// port's ShedExpired sheds what outlives it at dequeue.
			toRP.SetSendDeadline(s.reqDeadline)
		}
		if err := tc.DefineChild(core.ChildDef{
			Name:    "RequestProcessing",
			UsePool: true,
			// Pure-declaration Setup: the shell is revived across requests,
			// only the scoped area cycles.
			Reusable: true,
			Setup: func(rp *core.Component) error {
				// Concurrency pool workers dispatch requests side by side;
				// the bounded buffer plus OverflowBlock turns "queue full"
				// into the reader loop parking, which in turn stops reading
				// the socket — wire-level backpressure instead of a dropped
				// connection when a pipelined client runs ahead of the
				// servants.
				// With overload control the queue turns tenant-fair: DRR
				// across tenant classes within each priority band, EDF
				// within a class, and already-dead work shed at dequeue
				// instead of executed.
				_, err := core.AddInPort(rp, tSMM, core.InPortConfig{
					Name: "request", Type: requestType, Threading: s.threading,
					MinThreads: 1, MaxThreads: s.concurrency,
					BufferSize:  2 * s.concurrency,
					Overflow:    core.OverflowBlock,
					Fair:        s.ctrl != nil,
					ShedExpired: s.ctrl != nil,
					Handler:     core.HandlerFunc(s.processRequest),
				})
				return err
			},
		}); err != nil {
			return err
		}
		tc.SetStart(func(p *core.Proc) error {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.readLoop(sc, toRP)
			}()
			return nil
		})
		return nil
	}
}

// readLoop frames inbound GIOP messages and relays each into the
// RequestProcessing scope through the component port. Frames are read
// directly into pooled, refcounted buffers (giop.AcquireFrame) and the
// request bytes are never copied again: the dispatched message's raw slice
// aliases the frame, and the frame reference is released when the pooled
// message is recycled after its handler returns. Requests dispatch
// concurrently (up to the configured Concurrency) and each reply goes out
// through the connection's write coalescer as its servant finishes — out of
// order when completions cross — while the demultiplexing client matches
// them back to callers by request id.
func (s *Server) readLoop(sc *serverConn, toRP *core.OutPort) {
	fr := giop.NewFrameReader(sc.conn, uint32(s.maxMsg))
	defer fr.Close()
	for {
		h, fb, err := fr.NextFrame()
		if err != nil {
			// EOF and closed-pipe are normal teardown; anything else —
			// a peer vanishing mid-frame, a short read, an over-limit
			// frame — is an abrupt failure worth a fault record. Either
			// way the connection is done.
			if !cleanClose(err) {
				telemetry.RecordFault("orb.server.read", wireErr("read", s.ln.Addr(), err))
			}
			sc.conn.Close()
			return
		}
		switch h.Type {
		case giop.MsgRequest:
			if !s.dispatch(sc, toRP, h, fb) {
				sc.conn.Close()
				return
			}
		case giop.MsgLocateRequest:
			// Locate is a transport-level probe; answer on the reader
			// thread without entering the component structure.
			var req giop.LocateRequest
			err := giop.DecodeLocateRequest(h.Order, fb.Body(), &req)
			if err != nil {
				fb.Release()
				sc.conn.Close()
				return
			}
			status, fwd := s.locateStatus(req.ObjectKey)
			fb.Release() // req.ObjectKey is dead past this point
			wb := giop.GetBuffer()
			wb.B = giop.MarshalLocateReply(wb.B, h.Order, &giop.LocateReply{
				RequestID: req.RequestID, Status: status, Forward: fwd,
			})
			err = sc.write(wb.B)
			giop.PutBuffer(wb)
			if err != nil {
				if !cleanClose(err) {
					telemetry.RecordFault("orb.server.write", wireErr("write", s.ln.Addr(), err))
				}
				sc.conn.Close()
				return
			}
		case giop.MsgCloseConnection:
			fb.Release()
			sc.conn.Close()
			return
		default:
			// Ignore other message types.
			fb.Release()
		}
	}
}

// dispatch moves one framed request into the RequestProcessing port: it
// takes ownership of the frame reference, handing it to the pooled message
// on success (released when the message recycles) and releasing it on a
// failed message grab. It reports false when the connection should drop —
// pool exhaustion is answered with disconnection, the hard-real-time stance
// on overload.
func (s *Server) dispatch(sc *serverConn, toRP *core.OutPort, h giop.Header, fb *giop.FrameBuf) bool {
	if s.ctrl != nil {
		return s.dispatchAdmitted(sc, toRP, h, fb)
	}
	msg, err := toRP.GetMessage()
	if err != nil {
		fb.Release()
		return false
	}
	m := msg.(*requestMsg)
	m.setFrame(fb, h.Order)
	m.conn = sc
	m.inflight = &s.inflight
	s.inflight.Add(1)
	// Dispatch at the priority the client stamped on the request, so a
	// high-priority invocation overtakes queued lower ones instead of
	// waiting behind the arrival order.
	prio := sched.NormPriority
	if p, ok := giop.PeekRequestPriority(h.Order, m.raw); ok {
		if cand := sched.Priority(p); cand.Valid() {
			prio = cand
		}
	}
	// On a send error the enqueue path has already recycled the message
	// (envelope completion runs Reset), releasing the frame reference with it.
	return toRP.Send(msg, prio) == nil
}

// dispatchAdmitted is the overload-controlled dispatch path: one alloc-free
// peek classifies the request (tenant id, tier, priority, response
// expectation) before anything is demarshalled or pooled, and the controller
// decides its fate. A rejection answers expecting callers with a shed reply
// and keeps the connection — overload is a load condition, not a protocol
// error. An admission hands the request to the pooled message armed with the
// controller slot: done, OnShed, or Reset releases it exactly once.
func (s *Server) dispatchAdmitted(sc *serverConn, toRP *core.OutPort, h giop.Header, fb *giop.FrameBuf) bool {
	info, peeked := giop.PeekRequestInfo(h.Order, fb.Body())
	prio := sched.NormPriority
	if peeked {
		if cand := sched.Priority(info.Priority); cand.Valid() {
			prio = cand
		}
	}
	admitAt := telemetry.Now()
	d := s.ctrl.Admit(info.TenantID, overload.Tier(info.TenantTier), prio)
	if !d.OK {
		if peeked && info.ResponseExpected {
			// The brown-out shed carries the controller's back-off hint, so
			// the client paces its retry to the server's recovery horizon.
			writeShedReply(sc, h.Order, info.RequestID, int64(s.ctrl.RetryAfter()))
		}
		fb.Release()
		return true
	}
	msg, err := toRP.GetMessage()
	if err != nil {
		s.ctrl.Dropped()
		fb.Release()
		return false
	}
	m := msg.(*requestMsg)
	m.setFrame(fb, h.Order)
	m.conn = sc
	m.ctrl = s.ctrl
	m.admitAt = admitAt
	m.class = d.Class
	m.inflight = &s.inflight
	s.inflight.Add(1)
	// On a send error the enqueue path has already recycled the message
	// (Reset), releasing the frame reference and the controller slot with it.
	return toRP.Send(msg, prio) == nil
}

// shedReplyPayload is the body of the system exception answering a shed
// request.
var shedReplyPayload = []byte("orb: overload: request shed")

// writeShedReply answers one shed request with a system-exception reply so
// the caller fails fast instead of hanging until its invoke timeout. A
// positive retryAfterNs rides along in the retry-after service context as
// the suggested back-off. Best effort: a write failure means the connection
// is dying, and its reader loop owns that diagnosis.
func writeShedReply(sc *serverConn, order giop.ByteOrder, requestID uint32, retryAfterNs int64) {
	wb := giop.GetBuffer()
	wb.B = giop.MarshalReply(wb.B, order, &giop.Reply{
		RequestID:    requestID,
		Status:       giop.ReplySystemException,
		RetryAfterNs: retryAfterNs,
		Payload:      shedReplyPayload,
	})
	_ = sc.write(wb.B)
	giop.PutBuffer(wb)
}

// retireRetryAfterNs is the back-off hinted to stragglers addressing a
// retiring servant on a server without an overload controller: long enough
// for a rolling upgrade's directory update to land, short enough not to
// stall the caller.
const retireRetryAfterNs = int64(20 * time.Millisecond)

// retryAfterNs is the back-off hint stamped on shed replies: the overload
// controller's level-scaled window when one is running, the retirement
// default otherwise.
func (s *Server) retryAfterNs() int64 {
	if s.ctrl != nil {
		return int64(s.ctrl.RetryAfter())
	}
	return retireRetryAfterNs
}

// processRequest runs in the RequestProcessing component's scope: it
// demarshals the request there, invokes the servant, and marshals and
// writes the reply from the same scope, which is reclaimed (or returned to
// the pool) when the component quiesces.
func (s *Server) processRequest(p *core.Proc, msg core.Message) error {
	m := msg.(*requestMsg)
	var req giop.Request
	if err := giop.DecodeRequest(m.order, m.raw, &req); err != nil {
		return fmt.Errorf("orb server: demarshal: %w", err)
	}

	// Continue the caller's trace: open a server span under the trace id
	// carried in the request's service context, and echo it in the reply so
	// the client can stitch the round trip.
	var serverSpan uint64
	var spanStart int64
	if req.TraceID != 0 && telemetry.VerboseEnabled() {
		serverSpan = telemetry.NewID()
		telemetry.Record(telemetry.EvSpanStart, serverSpanLabel, req.TraceID, serverSpan, uint64(req.RequestID))
		spanStart = telemetry.Now()
		defer func() {
			telemetry.Record(telemetry.EvSpanEnd, serverSpanLabel, req.TraceID, serverSpan, uint64(telemetry.Now()-spanStart))
		}()
	}

	var (
		status  giop.ReplyStatus
		payload []byte
	)
	sv, ok := s.servant(req.ObjectKey)
	if !ok {
		if s.isRetiring(req.ObjectKey) {
			// A drain unbound this servant; the request raced the unbind or
			// was already queued. Shed it with a back-off hint — the caller's
			// directory re-routes the retry to a surviving replica — and let
			// the recycle release any controller slot as a drop.
			if req.ResponseExpected {
				writeShedReply(m.conn, m.order, req.RequestID, s.retryAfterNs())
			}
			return nil
		}
		status = giop.ReplySystemException
		payload = []byte(corba.ErrNoServant.Error())
	} else {
		out, err := invokeServant(sv, &req)
		if err != nil {
			status = giop.ReplyUserException
			payload = []byte(err.Error())
		} else {
			payload = out
		}
	}
	if !req.ResponseExpected {
		// The servant ran: record the completion (admit→finish) with the
		// overload controller even though no reply goes out.
		m.done()
		return nil
	}

	area, err := s.repPool.Acquire()
	if err != nil {
		return fmt.Errorf("orb server: reply scope: %w", err)
	}
	if err := p.Context().Enter(area, func(ctx *memory.Context) error {
		wireCap := giop.HeaderSize + 48 + len(payload)
		ref, err := ctx.Alloc(wireCap)
		if err != nil {
			return fmt.Errorf("orb server: reply buffer: %w", err)
		}
		buf, err := ref.Bytes()
		if err != nil {
			return err
		}
		wire := giop.MarshalReply(buf[:0], m.order, &giop.Reply{
			RequestID: req.RequestID,
			Status:    status,
			TraceID:   req.TraceID,
			SpanID:    serverSpan,
			Payload:   payload,
		})
		if err := m.conn.write(wire); err != nil {
			return fmt.Errorf("orb server: write reply: %w", wireErr("write", s.ln.Addr(), err))
		}
		return nil
	}); err != nil {
		// The unwind recycles the message; Reset releases the controller
		// slot as a drop (a failed reply write is not a latency sample).
		return err
	}
	// Full service time — admission to reply-on-the-wire — is the latency
	// signal driving the AIMD limit.
	m.done()
	return nil
}

// invokeServant dispatches to the priority-aware interface when the servant
// provides it.
func invokeServant(sv corba.Servant, req *giop.Request) ([]byte, error) {
	if ps, ok := sv.(corba.PrioritizedServant); ok {
		return ps.InvokeWithPriority(req.Operation, req.Payload, req.Priority)
	}
	return sv.Invoke(req.Operation, req.Payload)
}

// Close shuts the server down: the listener and all connections close, the
// reader loops exit, and the component application stops.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Withdraw from the collocation registry first: the generation bump
	// sends bound clients back to detection, which skips closed servers, so
	// their next invoke takes the wire path (and its own error handling)
	// instead of a stale direct pointer.
	unregisterLocal(s.net, s.ln.Addr(), s)
	_ = s.ln.Close()
	s.mu.Lock()
	conns := s.conns
	handles := s.handles
	s.conns, s.handles = nil, nil
	s.mu.Unlock()
	for _, sc := range conns {
		_ = sc.conn.Close()
	}
	s.wg.Wait()
	for i := len(handles) - 1; i >= 0; i-- {
		handles[i].Disconnect()
	}
	s.app.Stop()
}
