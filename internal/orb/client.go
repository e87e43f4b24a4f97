package orb

import (
	"errors"
	"fmt"
	"os"
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

// Flight-recorder labels for the client's invocation spans.
var (
	clientSpanLabel  = telemetry.Label("orb.client.invoke")
	clientReplyLabel = telemetry.Label("orb.client.reply")
)

// ClientConfig parameterises a Compadres ORB client.
type ClientConfig struct {
	// Network and Addr locate the server.
	Network transport.Network
	Addr    string
	// Addrs, when non-empty, lists the addresses of a replicated server
	// group; stripes spread round-robin across the members (Channels is
	// raised to at least len(Addrs) so every member gets a stripe) and Addr
	// is ignored. The striped pool then balances across replicas the same
	// way it balances across connections — P2C on in-flight count with
	// per-stripe breakers — and a dead member's stripes fail over to the
	// survivors (replica.go).
	Addrs []string
	// Resolve, when set, re-resolves the group membership: it is consulted
	// (single-flight, rate-limited) when a stripe's dial target refuses the
	// dial, and may be invoked any time via Retarget-driven refreshers. It
	// returns the current member addresses; errors and empty lists leave the
	// previous membership in place.
	Resolve func() ([]string, error)
	// Order selects the CDR byte order; BigEndian by default.
	Order giop.ByteOrder
	// MaxMessage bounds a reply body; zero selects DefaultMaxMessage.
	MaxMessage int
	// ScopePoolCount is how many MessageProcessing scopes to pre-create.
	// Request scopes always come from a growable pool (the paper's scope
	// pool optimisation); zero pre-creates one and lets the pool grow to its
	// steady-state size on demand.
	ScopePoolCount int
	// Synchronous dispatches the component ports on the calling thread
	// instead of port thread pools.
	Synchronous bool
	// MsgPoolCapacity overrides the per-type message pool capacity.
	MsgPoolCapacity int
	// PipelineDepth bounds how many invocations may be queued through the
	// client's component pipeline at once (the buffer size of the internal
	// relay ports). Invocations beyond it fail fast with ErrBufferFull —
	// the client-side backpressure signal. Zero selects DefaultPipelineDepth.
	PipelineDepth int
	// Resilience opts the client into supervised-connection behaviour:
	// redial with backoff, per-invoke deadlines, retry budgets for
	// idempotent operations, and a circuit breaker. Nil (the default)
	// keeps the original semantics — one dial, every error surfaces.
	// With Channels > 1 the breaker is per stripe: one dead connection
	// opens its own circuit while the others keep serving.
	Resilience *ResilienceConfig
	// Channels opens that many multiplexed connections (stripes) to the
	// server and spreads invocations across them: power-of-two-choices on
	// in-flight count, sticky per priority band so RT-CORBA ordering within
	// a band is preserved (stripe.go). Zero or one keeps the single
	// connection; values above 32 clamp.
	Channels int
	// Tenant classifies this client's traffic for server-side overload
	// control: every request carries the id and QoS tier in a GIOP service
	// context (giop.TenantContextID), which a controller-equipped server
	// uses for weighted fair admission and brown-out decisions. The zero
	// Tenant stamps nothing — the wire stays byte-identical to an
	// overload-unaware client.
	Tenant overload.Tenant
	// Collocate opts the client into the collocated invocation fast path
	// (local.go): when a member of the target set is an orb.Server in this
	// process on this same Network, Invoke/InvokeView/InvokeOneway dispatch
	// the servant directly on the caller's goroutine — no GIOP encode/
	// decode, no coalescer, no stripes, no reactor. Server-side policy is
	// preserved exactly: the overload Admit gate, tenant classification,
	// retiring-key sheds, in-flight/latency instruments, and trace spans
	// all see collocated traffic identically to remote traffic. The
	// collocation decision is re-validated per invoke against the process
	// registry and the client's route generation, so a server swap or a
	// Retarget falls the client back to the wire path, never a stale
	// pointer. Contract difference from the wire: a collocated Invoke's
	// reply aliases the slice the servant returned (no marshal copies), so
	// servants must hand out bytes they will not mutate afterwards; and
	// Locate always uses the wire.
	Collocate bool
}

// DefaultMaxMessage is the default bound on message bodies.
const DefaultMaxMessage = 4096

// DefaultPipelineDepth is the default bound on queued invocations; deep
// enough that a 64-caller pipelined burst rides one connection without
// tripping client-side backpressure.
const DefaultPipelineDepth = 128

// sendWidth is the thread width of the client's marshalling pipeline (the
// Transport and MessageProcessing port pools), which also caps how many
// request frames can sit in a connection's write coalescer at once.
const sendWidth = 2

// Client is the component-structured ORB client of Fig. 10 (left). Its
// invocations pipeline over one multiplexed GIOP connection: submissions
// are marshalled and written by the component pipeline, and a per-connection
// demux reactor (mux.go) matches replies to in-flight pending-table entries
// by request id, so concurrent invokes overlap on the wire instead of
// serialising behind a whole-exchange lock.
type Client struct {
	app      *core.App
	invoke   *core.OutPort
	reqPool  *memory.ScopePool
	nextID   atomic.Uint32
	maxMsg   int
	order    giop.ByteOrder
	tenant   overload.Tenant
	closed   atomic.Bool
	network  transport.Network
	addr     string
	res      *resilience // nil unless ClientConfig.Resilience was set
	inflight atomic.Int64
	gauge    *telemetry.GaugeHandle

	// Collocation state (local.go): local caches the detection outcome,
	// routeGen invalidates it on Retarget/membership refresh.
	collocate bool
	local     atomic.Pointer[localBinding]
	routeGen  atomic.Uint64

	// stripes is the channel pool: each entry owns one multiplexed
	// connection slot with its own redial lock and breaker. Selection state
	// lives here: sticky maps a priority band to 1+the stripe it last rode
	// (0 = unset) and bandInflight counts the band's in-flight invocations,
	// so a busy band stays on one stripe (ordering) while an idle one
	// re-balances; rng drives the two random choices.
	stripes      []*stripe
	sticky       [bandCount]atomic.Int32
	bandInflight [bandCount]atomic.Int64
	rng          atomic.Uint64

	// Replica-set state (replica.go): members is the current address list,
	// resolve the optional re-resolution hook (guarded by resolveMu with a
	// lastResolve rate limit so a burst of failing stripes triggers one
	// directory round trip, not one each), retargetMu serialises Retarget
	// sweeps, and rotate spreads failed-over stripes across survivors.
	members     atomic.Pointer[[]string]
	resolve     func() ([]string, error)
	resolveMu   sync.Mutex
	lastResolve int64
	retargetMu  sync.Mutex
	rotate      atomic.Uint32

	// leaderFollower enables caller-driven demux: awaiting callers take
	// turns holding a per-connection leader token and read replies
	// themselves, so a round trip needs no reactor-to-caller rendezvous.
	// Only set for synchronous clients, whose submissions register the
	// pending entry on the caller's goroutine before await runs.
	leaderFollower bool
}

// DialClient builds the client component structure and connects it. The
// Transport component dials when it is instantiated — which happens when
// the first request message arrives, exactly as §3.2 describes — so the
// network connection is established lazily.
func DialClient(cfg ClientConfig) (*Client, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("orb: nil network")
	}
	maxMsg := cfg.MaxMessage
	if maxMsg == 0 {
		maxMsg = DefaultMaxMessage
	}
	depth := cfg.PipelineDepth
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}

	// Area budgets: the Transport holds port structures and pools; each
	// MessageProcessing marshals one request and one reply.
	mpSize := int64(4*maxMsg + 8192)
	transportSize := int64(8*maxMsg + 32768)

	appCfg := core.AppConfig{Name: "CompadresORBClient", ImmortalSize: 1 << 20}
	if cfg.MsgPoolCapacity != 0 {
		appCfg.MsgPoolCapacity = cfg.MsgPoolCapacity
	} else if need := depth + 8; need > core.DefaultMsgPoolCapacity {
		// PipelineDepth is the intended in-flight bound; the pooled message
		// instances backing the relay ports must cover it, or the pool —
		// not the configured depth — becomes the effective ceiling.
		appCfg.MsgPoolCapacity = need
	}
	appCfg.ScopePools = []core.ScopePoolSpec{
		// Level 2 holds the MessageProcessing scopes (ORB is level 0,
		// Transport 1).
		{Level: 2, AreaSize: mpSize, Count: max(cfg.ScopePoolCount, 1), Grow: true},
	}
	app, err := core.NewApp(appCfg)
	if err != nil {
		return nil, err
	}

	// Each in-flight request marshals into its own pooled scope nested
	// under MessageProcessing, so pipelined invokes cannot exhaust the
	// component's fixed region (the RTZen per-request scope pattern).
	reqPool, err := app.Model().NewScopePool(memory.ScopePoolConfig{
		Name:     "orb.client.request",
		AreaSize: int64(3*maxMsg + 4096),
		Count:    4,
		Grow:     true,
	})
	if err != nil {
		app.Stop()
		return nil, err
	}

	addrs := append([]string(nil), cfg.Addrs...)
	if len(addrs) == 0 {
		addrs = []string{cfg.Addr}
	}
	cl := &Client{
		app:       app,
		reqPool:   reqPool,
		maxMsg:    maxMsg,
		order:     cfg.Order,
		tenant:    cfg.Tenant,
		network:   cfg.Network,
		addr:      addrs[0],
		resolve:   cfg.Resolve,
		collocate: cfg.Collocate,
	}
	cl.members.Store(&addrs)
	if cfg.Resilience != nil {
		cl.res = newResilience(*cfg.Resilience)
	}
	channels := cfg.Channels
	if channels <= 0 {
		channels = 1
	}
	if channels < len(addrs) {
		// Every member of the replica set gets at least one stripe.
		channels = len(addrs)
	}
	if channels > maxChannels {
		channels = maxChannels
	}
	for i := 0; i < channels; i++ {
		st := &stripe{cl: cl, idx: i}
		st.setTarget(addrs[i%len(addrs)])
		if cl.res != nil {
			cl.res.initBreaker(&st.brk)
		}
		cl.stripes = append(cl.stripes, st)
	}
	cl.gauge = telemetry.Default.RegisterGauge("inflight", "orb.client", func() int64 {
		return cl.inflight.Load()
	})
	if channels > 1 {
		for _, st := range cl.stripes {
			st := st
			st.gauge = telemetry.Default.RegisterGauge("inflight",
				fmt.Sprintf("orb.client.stripe%d", st.idx),
				func() int64 { return st.inflight.Load() })
		}
	}

	threading := core.ThreadingShared
	if cfg.Synchronous {
		threading = core.ThreadingSynchronous
		cl.leaderFollower = true
	}

	orbComp, err := app.NewImmortalComponent("ORB", func(c *core.Component) error {
		smm := c.SMM()
		out, err := core.AddOutPort(c, smm, core.OutPortConfig{
			Name: "toTransport", Type: invokeType, Dests: []string{"Transport.request"},
		})
		if err != nil {
			return err
		}
		cl.invoke = out
		return c.DefineChild(core.ChildDef{
			Name:       "Transport",
			MemorySize: transportSize,
			Persistent: true,
			Setup:      cl.transportSetup(threading, depth),
		})
	})
	if err != nil {
		cl.gauge.Unregister()
		app.Stop()
		return nil, err
	}
	_ = orbComp
	if err := app.Start(); err != nil {
		cl.gauge.Unregister()
		app.Stop()
		return nil, err
	}
	if cl.res != nil && cl.res.cfg.InvokeTimeout > 0 {
		// Stamp the invoke timeout on the port as a send deadline, so the
		// deadline monitor counts invokes whose handler starts late, in
		// addition to the submit-and-wait enforcement in await.
		cl.invoke.SetSendDeadline(cl.res.cfg.InvokeTimeout)
	}
	return cl, nil
}

// transportSetup wires one Transport instance: the In port fed by the ORB,
// the Out port feeding MessageProcessing, the per-request child definition,
// and the start function that dials every stripe's connection and launches
// its reactor.
func (cl *Client) transportSetup(threading core.Threading, depth int) func(*core.Component) error {
	return func(tc *core.Component) error {
		orbSMM := tc.Parent().SMM()
		tSMM := tc.SMM()

		toMP, err := core.AddOutPort(tc, tSMM, core.OutPortConfig{
			Name: "toMP", Type: invokeType, Dests: []string{"MessageProcessing.request"},
		})
		if err != nil {
			return err
		}

		// The Transport relays requests from the ORB into the deepest
		// scope: get a fresh pooled message from its own SMM and copy the
		// invocation over (messages never cross SMM pools).
		if _, err := core.AddInPort(tc, orbSMM, core.InPortConfig{
			Name: "request", Type: invokeType, Threading: threading,
			MinThreads: 1, MaxThreads: sendWidth, BufferSize: depth,
			Handler: core.HandlerFunc(func(p *core.Proc, msg core.Message) error {
				in := msg.(*invokeMsg)
				fwd, err := toMP.GetMessage()
				if err != nil {
					in.pe.complete(invokeResult{err: err})
					return err
				}
				out := fwd.(*invokeMsg)
				out.copyFrom(in)
				if err := toMP.Send(fwd, in.prio); err != nil {
					in.pe.complete(invokeResult{err: err})
					return err
				}
				return nil
			}),
		}); err != nil {
			return err
		}

		if err := tc.DefineChild(core.ChildDef{
			Name:    "MessageProcessing",
			UsePool: true,
			// Setup is pure declaration (one In port on the parent's SMM), so
			// the shell survives quiescence and only the area cycles per
			// request.
			Reusable: true,
			Setup: func(mp *core.Component) error {
				_, err := core.AddInPort(mp, tSMM, core.InPortConfig{
					Name: "request", Type: invokeType, Threading: threading,
					MinThreads: 1, MaxThreads: sendWidth, BufferSize: depth,
					Handler: core.HandlerFunc(cl.processInvoke),
				})
				return err
			},
		}); err != nil {
			return err
		}

		tc.SetStart(func(p *core.Proc) error {
			for _, st := range cl.stripes {
				conn, err := cl.network.Dial(st.target())
				if err != nil {
					if cl.res != nil {
						// Supervised mode: leave this stripe's connection
						// nil and let the next invoke routed to it redial
						// with backoff; the failure still counts toward the
						// stripe's breaker.
						telemetry.RecordFault("orb.client.dial", err)
						st.brk.Failure()
						continue
					}
					return fmt.Errorf("orb client dial %q: %w", st.target(), err)
				}
				st.cur.Store(newMuxConn(st, conn))
			}
			return nil
		})
		return nil
	}
}

// processInvoke runs in the MessageProcessing component's scope: it enters
// a pooled per-request scope nested under it, marshals the GIOP request
// there, registers the invocation's pending entry, and writes the frame.
// It does NOT wait for the reply — the connection's demux reactor completes
// the caller's channel when the matching reply arrives — so the component
// pipeline stays available for the next submission and invocations pipeline
// on the wire. The request scope is reclaimed on return (the frame has been
// written by then), keeping memory bounded per in-flight request.
func (cl *Client) processInvoke(p *core.Proc, msg core.Message) error {
	in := msg.(*invokeMsg)
	if in.pe.state.Load() == pendingCancelled {
		// The caller gave up (deadline) while this submission was queued:
		// drop it before it reaches the wire.
		return nil
	}
	area, err := cl.reqPool.Acquire()
	if err != nil {
		in.pe.complete(invokeResult{err: err})
		return err
	}
	var submitErr error
	if err := p.Context().Enter(area, func(ctx *memory.Context) error {
		submitErr = cl.submit(ctx, in)
		return nil
	}); err != nil {
		in.pe.complete(invokeResult{err: err})
		return err
	}
	if submitErr != nil {
		// submit already completed the entry on its pre-registration error
		// paths; once the entry is registered, only the reactor or the
		// connection failer may complete it. Completing here as well would
		// race the failer: if this complete won, the caller could recycle
		// and re-arm the entry through the pool while the failer still
		// holds the stale pointer, and its late complete would hand the
		// entry's next owner a stranger's error.
		return submitErr
	}
	if in.oneway {
		// No reply will be demultiplexed: the successful write is the
		// completion.
		if cl.res != nil {
			in.st.brk.Success()
		}
		in.pe.complete(invokeResult{})
	}
	return nil
}

// submit marshals one request with buffers charged to the current scope,
// registers its pending entry with the live connection (redialling under
// supervision if none is up), and writes the frame.
//
// Completion ownership: every error before the entry is registered
// completes the entry here (this goroutine is its only holder); from the
// moment register succeeds, ONLY the reactor or the connection failer
// completes it — a send failure kills the connection, and fail() delivers
// the error to every tabled entry, this one included.
func (cl *Client) submit(ctx *memory.Context, in *invokeMsg) error {
	wireCap := giop.HeaderSize + 96 + len(in.key) + len(in.op) + len(in.payload)
	wireRef, err := ctx.Alloc(wireCap)
	if err != nil {
		err = fmt.Errorf("orb client: marshal buffer: %w", err)
		in.pe.complete(invokeResult{err: err})
		return err
	}
	wireBuf, err := wireRef.Bytes()
	if err != nil {
		in.pe.complete(invokeResult{err: err})
		return err
	}
	wire := giop.MarshalRequest(wireBuf[:0], cl.order, &giop.Request{
		RequestID:        in.id,
		ResponseExpected: !in.oneway,
		ObjectKey:        in.keyBuf,
		Operation:        in.op,
		Priority:         byte(in.prio),
		TraceID:          in.trace,
		SpanID:           in.span,
		TenantID:         cl.tenant.ID,
		TenantTier:       uint8(cl.tenant.Tier),
		Payload:          in.payload,
	})

	mc, err := in.st.conn()
	if err != nil {
		in.pe.complete(invokeResult{err: err})
		return err
	}
	if !in.oneway {
		ok, err := mc.register(in.pe)
		if err != nil {
			// The connection was already dead: the entry never entered the
			// table, so it is still exclusively ours to complete.
			in.pe.complete(invokeResult{err: err})
			return err
		}
		if !ok {
			// Cancelled while queued; nothing was sent and the caller has
			// abandoned the entry.
			return nil
		}
	}
	if err := mc.send(wire); err != nil {
		werr := fmt.Errorf("orb client: write: %w", cl.mapWireErr(err))
		if in.oneway {
			// Oneway entries never register, so fail() cannot reach them.
			in.pe.complete(invokeResult{err: werr})
		}
		// Registered entries: send already failed the connection, and
		// fail() completes every tabled entry (this one included) exactly
		// once. Completing here too would race that sweep — see
		// processInvoke.
		return werr
	}
	return nil
}

// invokeTimeout returns the per-invoke deadline, zero when unconfigured.
func (cl *Client) invokeTimeout() time.Duration {
	if cl.res == nil {
		return 0
	}
	return cl.res.cfg.InvokeTimeout
}

// mapWireErr folds a deadline expiry into ErrDeadlineExceeded (counting it)
// and passes every other wire error through.
func (cl *Client) mapWireErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		invokeTimeoutTotal.Inc()
		return fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
	}
	return err
}

// doneChanPool recycles completion channels across Invoke calls. A channel
// returns to the pool only after its single result has been received, so a
// recycled channel is always empty. A channel whose outcome is uncertain —
// the entry was cancelled, so a racing submitter may still hold it — is
// abandoned instead of recycled: a late write to an abandoned cap-1 channel
// is harmless, while a late write to a recycled one would hand some other
// invocation a stranger's reply.
var doneChanPool = sync.Pool{New: func() any { return make(chan invokeResult, 1) }}

// timerPool recycles the deadline timers armed per invoke when an
// InvokeTimeout is configured.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// Invoke performs one synchronous request/reply at the given priority. The
// payload is not retained past the call. Under a ResilienceConfig the call
// fails fast with ErrCircuitOpen while the breaker is open; it is never
// retried (use InvokeIdempotent for operations that may safely run twice).
// Concurrent Invokes pipeline over the shared connection and may complete
// in any order.
func (cl *Client) Invoke(key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	if cl.closed.Load() {
		return nil, corba.ErrClosed
	}
	if srv := cl.localServer(); srv != nil {
		if out, err, handled := cl.invokeCollocated(srv, key, op, payload, prio, false); handled {
			return out, err
		}
	}
	st, err := cl.pickStripe(prio)
	if err != nil {
		return nil, err
	}
	return consumeReply(cl.invokeOnce(st, key, op, payload, prio, false))
}

// InvokeView is the zero-copy Invoke: instead of returning a heap copy of
// the reply payload, it runs view on the caller's goroutine with the payload
// as a revocable loan into the arrival frame, then releases the frame. The
// bytes travel socket→view with no intermediate copy. The loan is only valid
// inside view — the release revokes it, and a retained loan answers ErrStale
// afterwards; a view that needs the bytes past its return must escape
// explicitly with Loan.Detach (a counted copy into memory the caller owns).
func (cl *Client) InvokeView(key, op string, payload []byte, prio sched.Priority, view func(reply memory.Loan) error) error {
	if cl.closed.Load() {
		return corba.ErrClosed
	}
	if srv := cl.localServer(); srv != nil {
		if out, err, handled := cl.invokeCollocated(srv, key, op, payload, prio, false); handled {
			if err != nil {
				return err
			}
			if view != nil {
				// The collocated reply is the servant's own slice — no frame
				// to revoke; lend from a one-shot owner, as the frameless
				// wire path does.
				return view((&memory.LoanOwner{}).Lend(out))
			}
			return nil
		}
	}
	st, err := cl.pickStripe(prio)
	if err != nil {
		return err
	}
	res := cl.invokeOnce(st, key, op, payload, prio, false)
	if res.err != nil {
		res.release()
		return res.err
	}
	var verr error
	if view != nil {
		if res.frame != nil {
			verr = view(res.frame.Lend(res.payload))
		} else {
			// Frameless success (cannot happen on the reply path today, but
			// keep the contract total): lend from a one-shot owner that is
			// never revoked.
			verr = view((&memory.LoanOwner{}).Lend(res.payload))
		}
	}
	res.release()
	return verr
}

// consumeReply turns an invokeResult into the legacy ([]byte, error) shape:
// a payload that aliases an arrival frame is copied out (the copy is
// counted — this is the price of the retained-slice API) and the frame
// released.
func consumeReply(res invokeResult) ([]byte, error) {
	if res.frame == nil {
		return res.payload, res.err
	}
	var out []byte
	if len(res.payload) > 0 {
		out = make([]byte, len(res.payload))
		copy(out, res.payload)
		countPayloadCopy(len(res.payload))
	}
	res.release()
	return out, res.err
}

// InvokeIdempotent is Invoke for operations that are safe to execute more
// than once. Under a ResilienceConfig, transport-level failures are retried
// up to MaxRetries times within the retry budget, with capped exponential
// backoff between attempts; each retry uses a fresh request id, and stale
// replies to abandoned attempts are dropped by the demux reactor. Without
// resilience it behaves exactly like Invoke.
func (cl *Client) InvokeIdempotent(key, op string, payload []byte, prio sched.Priority) ([]byte, error) {
	if cl.closed.Load() {
		return nil, corba.ErrClosed
	}
	return cl.withRetry(func() ([]byte, error) {
		if srv := cl.localServer(); srv != nil {
			if out, err, handled := cl.invokeCollocated(srv, key, op, payload, prio, false); handled {
				return out, err
			}
		}
		st, err := cl.pickStripe(prio)
		if err != nil {
			return nil, err
		}
		return consumeReply(cl.invokeOnce(st, key, op, payload, prio, false))
	})
}

// invokeOnce runs one pass through the component pipeline: arm a pending
// entry, submit the invocation toward the chosen stripe, and wait for the
// reactor (or a failure path) to complete it. The returned result may carry
// a frame reference (payload aliasing the arrival buffer); the caller owns
// it and must release it via consumeReply, InvokeView, or release.
func (cl *Client) invokeOnce(st *stripe, key, op string, payload []byte, prio sched.Priority, oneway bool) invokeResult {
	msg, err := cl.invoke.GetMessage()
	if err != nil {
		return invokeResult{err: err}
	}
	m := msg.(*invokeMsg)
	m.id = cl.nextID.Add(1)
	m.setKey(key)
	m.op, m.payload, m.prio = op, payload, prio
	m.oneway = oneway
	m.st = st
	pe := getPending(m.id, bandOf(prio))
	m.pe = pe
	// Open a trace around the round trip. The ids are captured in locals
	// because the pooled message is recycled once its handler returns.
	trace, span, started := startSpan(uint64(m.id))
	m.trace, m.span = trace, span
	if err := cl.invoke.Send(msg, prio); err != nil {
		// The message's fate is uncertain: a racing dispatcher may still run
		// the handler and complete the entry. Claim it; if the claim fails,
		// a completion is already committed (complete moves armed→done
		// before sending on the cap-1 channel), so take that result — it is
		// the invocation's true fate, and draining it lets the entry and
		// channel recycle instead of leaking to the collector, and keeps a
		// result-borne frame reference from stranding in an abandoned
		// channel.
		if pe.state.CompareAndSwap(pendingArmed, pendingCancelled) {
			endSpan(trace, span, started)
			return invokeResult{err: err}
		}
		res := <-pe.done
		putPending(pe)
		endSpan(trace, span, started)
		return res
	}
	res := cl.await(pe)
	endSpan(trace, span, started)
	return res
}

// await blocks until the entry completes or the per-invoke deadline
// expires. On expiry the entry is cancelled and unhooked from the pending
// table: the connection stays up — the reactor simply drops the stale reply
// when (if) it arrives — so one slow invocation no longer tears down the
// pipeline for everyone else sharing the connection.
func (cl *Client) await(pe *muxPending) invokeResult {
	if mc := pe.mc.Load(); mc != nil && mc.lf {
		return cl.awaitLF(mc, pe)
	}
	timeout := cl.invokeTimeout()
	if timeout <= 0 {
		res := <-pe.done
		putPending(pe)
		return res
	}
	t := getTimer(timeout)
	select {
	case res := <-pe.done:
		putTimer(t)
		putPending(pe)
		return res
	case <-t.C:
		timerPool.Put(t) // fired: already drained
		if cl.cancelPending(pe) {
			invokeTimeoutTotal.Inc()
			return invokeResult{err: fmt.Errorf("%w: no reply within %v", ErrDeadlineExceeded, timeout)}
		}
		// Lost the race: a completion is already in flight. Take it.
		res := <-pe.done
		putPending(pe)
		return res
	}
}

// awaitLF is await for leader/follower connections: wait on the completion
// channel AND volunteer for the connection's leader token. A caller that
// wins the token reads frames off the wire itself (mux.lead), completing
// other callers' entries until its own reply arrives — the reply that
// matters to this caller never crosses a goroutine boundary. Followers whose
// replies the leader completes wake from their channel exactly as under the
// dedicated reactor.
func (cl *Client) awaitLF(mc *muxConn, pe *muxPending) invokeResult {
	timeout := cl.invokeTimeout()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	// Fast path: a parked token means no reader is active on the connection.
	// Take it with one non-blocking channel op — no timer armed, no 3-way
	// select — and demux our own reply.
	select {
	case <-mc.leaderCh:
		return cl.leadAfterToken(mc, pe, deadline, nil)
	default:
	}
	var t *time.Timer
	var tC <-chan time.Time
	if timeout > 0 {
		t = getTimer(time.Until(deadline))
		tC = t.C
	}
	select {
	case res := <-pe.done:
		if t != nil {
			putTimer(t)
		}
		putPending(pe)
		return res
	case <-mc.leaderCh:
		return cl.leadAfterToken(mc, pe, deadline, t)
	case <-tC:
		timerPool.Put(t) // fired: already drained
		if cl.cancelPending(pe) {
			invokeTimeoutTotal.Inc()
			return invokeResult{err: fmt.Errorf("%w: no reply within %v", ErrDeadlineExceeded, timeout)}
		}
		// Lost the race: a completion is already in flight. Take it.
		res := <-pe.done
		putPending(pe)
		return res
	}
}

// leadAfterToken runs once the caller holds mc's leader token: it re-checks
// the completion channel (the outgoing leader may have completed this entry
// and released the token in either order — leading with a completed entry
// would wedge on a read no reply answers), then reads the wire until the
// entry resolves. t, when non-nil, is the caller's armed deadline timer; it
// is recycled here (lead bounds the read with the conn deadline instead).
func (cl *Client) leadAfterToken(mc *muxConn, pe *muxPending, deadline time.Time, t *time.Timer) invokeResult {
	select {
	case res := <-pe.done:
		mc.leaderCh <- struct{}{}
		if t != nil {
			putTimer(t)
		}
		putPending(pe)
		return res
	default:
	}
	res, recycle := mc.lead(pe, deadline)
	if t != nil {
		putTimer(t)
	}
	if recycle {
		putPending(pe)
	}
	return res
}

// cancelPending claims an entry for its caller after a deadline expiry. On
// success the entry is removed from the pending table (best effort: the
// connection failer clears whole tables anyway) and — because the submit
// path may still hold the pointer — the entry and its channel are abandoned
// to the collector, never recycled.
func (cl *Client) cancelPending(pe *muxPending) bool {
	if !pe.state.CompareAndSwap(pendingArmed, pendingCancelled) {
		return false
	}
	// Best effort: the entry is tabled on at most one stripe's connection
	// (the failer clears whole tables anyway).
	for _, st := range cl.stripes {
		if mc := st.cur.Load(); mc != nil && mc.unregister(pe) {
			break
		}
	}
	return true
}

// withRetry runs op and, when resilience is enabled, retries retriable
// failures within the retry budget. Breaker gating happens inside op —
// stripe selection (pickStripe) fails fast with ErrCircuitOpen when no
// stripe admits traffic, and ErrCircuitOpen is retriable, so a later
// attempt can ride a half-open probe.
func (cl *Client) withRetry(op func() ([]byte, error)) ([]byte, error) {
	r := cl.res
	if r == nil {
		return op()
	}
	for attempt := 0; ; attempt++ {
		out, err := op()
		if err == nil {
			r.budget.Earn()
			r.resetDelay()
			return out, nil
		}
		if cl.closed.Load() || attempt >= r.cfg.MaxRetries || !retriable(err) || !r.budget.Take() {
			return nil, err
		}
		retryTotal.Inc()
		delay := r.nextDelay()
		// A shed reply carries the server's back-off hint: honour it when it
		// exceeds the local backoff, so retry pressure scales down with the
		// server's brown-out level instead of hammering a recovering peer.
		var shed *ShedError
		if errors.As(err, &shed) && shed.RetryAfter > delay {
			delay = shed.RetryAfter
		}
		time.Sleep(delay)
	}
}

// startSpan opens a client invocation span in the flight recorder when
// verbose telemetry is on; it returns zero ids (meaning untraced)
// otherwise. The trace id rides the wire, so gating here also switches the
// server's per-request span off in one place.
func startSpan(correlator uint64) (trace, span uint64, started int64) {
	if !telemetry.VerboseEnabled() {
		return 0, 0, 0
	}
	trace, span = telemetry.NewID(), telemetry.NewID()
	telemetry.Record(telemetry.EvSpanStart, clientSpanLabel, trace, span, correlator)
	return trace, span, telemetry.Now()
}

// endSpan closes a span opened by startSpan; arg is the span duration in
// nanoseconds.
func endSpan(trace, span uint64, started int64) {
	if trace == 0 {
		return
	}
	telemetry.Record(telemetry.EvSpanEnd, clientSpanLabel, trace, span, uint64(telemetry.Now()-started))
}

// Locate probes whether the server hosts the object key, using the GIOP
// LocateRequest/LocateReply exchange. Unlike Invoke it bypasses the
// component structure: locate is a transport-level question, answered by
// the same demux reactor that matches invocation replies. The Transport
// must already be connected (issue any Invoke first, or rely on lazy
// instantiation via a throwaway call).
func (cl *Client) Locate(key string) (bool, error) {
	here, _, err := cl.LocateEx(key)
	return here, err
}

// LocateEx is Locate with the forwarding evidence: when the server answers
// LocateObjectForward — a group directory redirecting the probe — fwd
// carries the addresses of the group members actually hosting the object
// (here is false; the probed server itself does not serve it).
func (cl *Client) LocateEx(key string) (here bool, fwd []string, err error) {
	if cl.closed.Load() {
		return false, nil, corba.ErrClosed
	}
	_, err = cl.withRetry(func() ([]byte, error) {
		var err error
		here, fwd, err = cl.locateOnce(key)
		return nil, err
	})
	return here, fwd, err
}

// locateOnce performs one LocateRequest/LocateReply exchange through a
// stripe's multiplexed connection (locate carries no priority; it routes
// under the normal band).
func (cl *Client) locateOnce(key string) (bool, []string, error) {
	st, err := cl.pickStripe(sched.NormPriority)
	if err != nil {
		return false, nil, err
	}
	mc := st.cur.Load()
	if mc == nil {
		if cl.res == nil || cl.closed.Load() {
			return false, nil, fmt.Errorf("%w: transport not yet connected; invoke first", corba.ErrClosed)
		}
		if mc, err = st.conn(); err != nil {
			return false, nil, err
		}
	}
	id := cl.nextID.Add(1)
	pe := getPending(id, bandOf(sched.NormPriority))
	pe.locate = true
	ok, err := mc.register(pe)
	if err != nil || !ok {
		putPending(pe) // never registered; we are the only holder
		if err == nil {
			err = corba.ErrClosed
		}
		return false, nil, fmt.Errorf("orb client: locate: %w", err)
	}
	wb := giop.GetBuffer()
	wb.B = giop.MarshalLocateRequest(wb.B, cl.order, &giop.LocateRequest{
		RequestID: id, ObjectKey: []byte(key),
	})
	err = mc.send(wb.B)
	giop.PutBuffer(wb)
	_ = err // a send failure completed the registered entry with the wire error
	res := cl.await(pe)
	if res.err != nil {
		return false, nil, fmt.Errorf("orb client: locate: %w", res.err)
	}
	return res.here, res.fwd, nil
}

// InvokeOneway sends a request without waiting for a reply. Oneways are
// idempotent from the transport's point of view (no reply is matched), so
// under a ResilienceConfig transport failures are retried within the retry
// budget like InvokeIdempotent. The call returns once the frame is written.
func (cl *Client) InvokeOneway(key, op string, payload []byte, prio sched.Priority) error {
	if cl.closed.Load() {
		return corba.ErrClosed
	}
	_, err := cl.withRetry(func() ([]byte, error) {
		if srv := cl.localServer(); srv != nil {
			if out, err, handled := cl.invokeCollocated(srv, key, op, payload, prio, true); handled {
				return out, err
			}
		}
		st, err := cl.pickStripe(prio)
		if err != nil {
			return nil, err
		}
		return consumeReply(cl.invokeOnce(st, key, op, payload, prio, true))
	})
	return err
}

// Inflight reports the number of invocations currently awaiting replies on
// the multiplexed connection (also exported as the `inflight` gauge).
func (cl *Client) Inflight() int64 { return cl.inflight.Load() }

// App exposes the underlying component application (for tests and the bench
// harness).
func (cl *Client) App() *core.App { return cl.app }

// Close shuts the client down: every stripe's connection is closed (failing
// any in-flight invocations with ErrClosed) and the component application
// stopped.
func (cl *Client) Close() {
	if cl.closed.Swap(true) {
		return
	}
	for _, st := range cl.stripes {
		if mc := st.cur.Load(); mc != nil {
			mc.fail(fmt.Errorf("orb client: %w", corba.ErrClosed))
		}
		if st.gauge != nil {
			st.gauge.Unregister()
		}
	}
	cl.gauge.Unregister()
	cl.app.Stop()
}
