package core

import (
	"encoding"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Mechanism selects how an SMM passes messages across scoped regions. The
// paper (§2.2) identifies three options and adopts the shared object as the
// most efficient; all three are implemented so the trade-off is measurable.
type Mechanism int

// Cross-scope message passing mechanisms.
const (
	// MechanismSharedObject pools messages in the SMM owner's area, which
	// both sender and receiver may legally reference. The default.
	MechanismSharedObject Mechanism = iota + 1
	// MechanismSerialization marshals the message to bytes and rebuilds a
	// copy for every receiver; the original returns to its pool at send
	// time. Messages must implement encoding.BinaryMarshaler/Unmarshaler.
	MechanismSerialization
	// MechanismHandoff runs the handler synchronously on the sending
	// thread, which walks through the common-ancestor area into the
	// receiver's area (the handoff pattern). Requires OutPort.SendFrom.
	MechanismHandoff
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MechanismSharedObject:
		return "shared-object"
	case MechanismSerialization:
		return "serialization"
	case MechanismHandoff:
		return "handoff"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// SMM is a Scoped Memory Manager: one per parent component, mediating all
// communication between the parent and its children and among the children.
// It owns the message pools (one per message type) and the In-port buffers,
// all charged to the parent's memory area; it maintains a proxy per child
// definition and instantiates child components on demand.
//
// The children table is the single record of each child's lifecycle: an
// entry is live (reservable) or, for a Reusable child, a dormant shell
// awaiting revival in place. Every transition — build, revival, disposal,
// swap-out — changes the table and the instance's disposed flag in one mu
// critical section, so an instance the table names as live is never
// disposed, and only reserved instances are ever handed out.
//
// The steady-state send path is lock-free with respect to the SMM: the
// mechanism and stop flag are atomics, and each OutPort caches its resolved
// destination In-ports (see routesFor), invalidated by a generation counter
// that port registration bumps. The SMM mutex is only taken to mutate the
// port/child/pool tables or on the cold resolution path.
type SMM struct {
	owner *Component
	area  *memory.Area

	// instMu serialises child instantiation; it is taken before mu and
	// never while holding mu.
	instMu sync.Mutex

	mu       sync.Mutex
	in       map[string]*InPort
	out      map[string]*OutPort
	children map[string]*Component // live instances and dormant Reusable shell entries
	msgPools map[string]*msgPool
	shared   *sched.Pool
	pools    []*sched.Pool // all pools owned by this SMM, for shutdown

	mechanism atomic.Int32
	stopped   atomic.Bool
	routeGen  atomic.Uint64 // bumped under mu on registerIn/registerOut/Rewire/Swap

	// genGauge exports routeGen once this SMM has been live-reconfigured;
	// registered lazily (under mu) so steady assemblies pay nothing.
	genGauge *telemetry.GaugeHandle
}

func newSMM(owner *Component) *SMM {
	s := &SMM{
		owner:    owner,
		area:     owner.area,
		in:       make(map[string]*InPort),
		out:      make(map[string]*OutPort),
		children: make(map[string]*Component),
		msgPools: make(map[string]*msgPool),
	}
	s.mechanism.Store(int32(MechanismSharedObject))
	return s
}

// Owner returns the parent component this SMM belongs to.
func (s *SMM) Owner() *Component { return s.owner }

// Area returns the memory area backing the SMM's pools and buffers (the
// owner's area).
func (s *SMM) Area() *memory.Area { return s.area }

// Mechanism returns the configured cross-scope mechanism.
func (s *SMM) Mechanism() Mechanism {
	return Mechanism(s.mechanism.Load())
}

// SetMechanism selects the cross-scope mechanism for subsequent sends.
func (s *SMM) SetMechanism(m Mechanism) {
	s.mechanism.Store(int32(m))
}

// GetOutPort looks an Out port up by qualified name ("Component.Port") or,
// when unambiguous, by short port name — the paper's smm.getOutPort().
func (s *SMM) GetOutPort(name string) (*OutPort, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.out[name]; ok {
		return p, nil
	}
	var found *OutPort
	for _, p := range s.out {
		if p.short == name {
			if found != nil {
				return nil, fmt.Errorf("%w: out port %q is ambiguous", ErrUnknownPort, name)
			}
			found = p
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w: out port %q", ErrUnknownPort, name)
	}
	return found, nil
}

// GetInPort looks an In port up by qualified or unambiguous short name.
func (s *SMM) GetInPort(name string) (*InPort, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.in[name]; ok {
		return p, nil
	}
	var found *InPort
	for _, p := range s.in {
		if p.short == name {
			if found != nil {
				return nil, fmt.Errorf("%w: in port %q is ambiguous", ErrUnknownPort, name)
			}
			found = p
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w: in port %q", ErrUnknownPort, name)
	}
	return found, nil
}

// Child returns the live instance of the named child, or nil (a dormant
// Reusable shell is not live).
func (s *SMM) Child(name string) *Component {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[name]
	if c == nil || c.Disposed() {
		return nil
	}
	return c
}

// MsgPoolStats reports (capacity, in-flight, gets, returns) for the pool of
// the given message type, or zeros if no pool exists yet.
func (s *SMM) MsgPoolStats(typeName string) (capacity, inFlight int, gets, returns int64) {
	s.mu.Lock()
	p := s.msgPools[typeName]
	s.mu.Unlock()
	if p == nil {
		return 0, 0, 0, 0
	}
	return p.stats()
}

// checkMediation verifies that this SMM may mediate ports of component c:
// the SMM's owner must be c itself or an ancestor of c (registering with a
// non-immediate ancestor is precisely the paper's shadow port). As a special
// case, any immortal component's SMM may mediate another immortal
// component's ports, since both live in the same immortal area and the
// assignment rules are trivially satisfied.
func (s *SMM) checkMediation(c *Component) error {
	for cc := c; cc != nil; cc = cc.parent {
		if cc == s.owner {
			return nil
		}
	}
	if s.area.Kind() == memory.KindImmortal && c.area.Kind() == memory.KindImmortal {
		return nil
	}
	return fmt.Errorf("core: SMM of %q cannot mediate ports of non-descendant %q", s.owner.name, c.name)
}

// registerIn adds (or rebinds) an In port of component c.
func (s *SMM) registerIn(c *Component, cfg InPortConfig) (*InPort, error) {
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	if !cfg.Type.valid() {
		return nil, fmt.Errorf("core: in port %q: invalid message type", cfg.Name)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("core: in port %q: nil handler", cfg.Name)
	}
	if err := s.checkMediation(c); err != nil {
		return nil, err
	}
	qname := c.name + "." + cfg.Name

	s.mu.Lock()
	if existing, ok := s.in[qname]; ok {
		// Re-instantiation of a transient child: the port structure
		// (buffer, pools) persists in the SMM; only the binding changes.
		if existing.typ.Name != cfg.Type.Name {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: port %q re-registered as %q, was %q",
				ErrTypeMismatch, qname, cfg.Type.Name, existing.typ.Name)
		}
		s.mu.Unlock()
		existing.bind(c, cfg.Handler)
		return existing, nil
	}
	s.mu.Unlock()

	bufSize := cfg.BufferSize
	if bufSize == 0 {
		bufSize = DefaultBufferSize
	}
	if bufSize < 0 {
		return nil, fmt.Errorf("core: in port %q: negative buffer size", qname)
	}
	threading := cfg.Threading
	if threading == 0 {
		threading = ThreadingShared
	}
	minT, maxT := cfg.MinThreads, cfg.MaxThreads
	if threading != ThreadingSynchronous {
		if minT == 0 {
			minT = 1
		}
		if maxT == 0 {
			maxT = 4
		}
	}

	// Charge the port header and buffer slots to the SMM's area and make
	// sure the message pool for the type exists.
	if err := s.charge(portHeaderBytes + bufSize*bufferSlotBytes); err != nil {
		return nil, fmt.Errorf("in port %q: %w", qname, err)
	}
	if _, err := s.ensurePool(cfg.Type); err != nil {
		return nil, err
	}

	p := &InPort{
		qname:       qname,
		short:       cfg.Name,
		typ:         cfg.Type,
		smm:         s,
		capacity:    bufSize,
		overflow:    cfg.Overflow,
		shedExpired: cfg.ShedExpired,
		label:       telemetry.Label(qname),
	}
	if cfg.Fair {
		// Tenant-fair buffer: the fair queue orders preallocated slab
		// slots, so fair-mode pushes allocate nothing at steady state.
		p.fair = sched.NewFairQueue(cfg.FairWeights)
		p.slab = make([]bufItem, bufSize)
		p.freeList = make([]uint32, bufSize)
		for i := range p.freeList {
			p.freeList[i] = uint32(bufSize - 1 - i)
		}
	} else {
		p.buf = make([]bufItem, 0, bufSize)
	}
	if cfg.Overflow == OverflowBlock {
		p.notFull = sync.NewCond(&p.mu)
	}
	// The dispatch closure is created once per port, so the per-message
	// Submit passes a preexisting function value instead of allocating.
	p.dispatchFn = func(prio sched.Priority) { s.dispatch(p, prio) }
	p.bind(c, cfg.Handler)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.in[qname]; dup {
		return nil, fmt.Errorf("%w: in port %q", ErrDuplicateName, qname)
	}
	switch threading {
	case ThreadingShared:
		if s.shared == nil {
			s.shared = sched.NewPool(sched.PoolConfig{
				Name: s.owner.name + ".shared", Min: minT, Max: maxT,
			})
			s.pools = append(s.pools, s.shared)
		}
		p.pool = s.shared
	case ThreadingDedicated:
		p.pool = sched.NewPool(sched.PoolConfig{Name: qname, Min: minT, Max: maxT})
		p.dedicated = true
		s.pools = append(s.pools, p.pool)
	case ThreadingSynchronous:
		p.pool = sched.NewPool(sched.PoolConfig{Name: qname, Max: 0})
		p.dedicated = true
		s.pools = append(s.pools, p.pool)
	default:
		return nil, fmt.Errorf("core: in port %q: unknown threading policy %v", qname, threading)
	}
	s.in[qname] = p
	s.routeGen.Add(1) // a new In port may resolve a previously dangling route
	p.gauges = telemetry.Default.RegisterGauges(qname, map[string]func() int64{
		"port_received":  p.received.Load,
		"port_processed": p.processed.Load,
		"port_dropped":   p.dropped.Load,
		"port_shed":      p.shed.Load,
		"port_queue_max": p.depthMax.Load,
	})
	return p, nil
}

// destsEqual reports whether two destination lists are identical, in order.
func destsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// registerOut adds (or rebinds) an Out port of component c.
func (s *SMM) registerOut(c *Component, cfg OutPortConfig) (*OutPort, error) {
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	if !cfg.Type.valid() {
		return nil, fmt.Errorf("core: out port %q: invalid message type", cfg.Name)
	}
	if err := s.checkMediation(c); err != nil {
		return nil, err
	}
	qname := c.name + "." + cfg.Name

	s.mu.Lock()
	if existing, ok := s.out[qname]; ok {
		if existing.typ.Name != cfg.Type.Name {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: port %q re-registered as %q, was %q",
				ErrTypeMismatch, qname, cfg.Type.Name, existing.typ.Name)
		}
		existing.mu.Lock()
		existing.owner = c
		existing.mu.Unlock()
		if destsEqual(existing.Dests(), cfg.Dests) {
			// A pooled component re-registering the same wiring (the common
			// per-request re-instantiation) changes no routes: keep the
			// current destination list and, crucially, do not bump routeGen —
			// every OutPort's cached route stays valid, so steady-state sends
			// skip the rebuild (SMM lock plus map walks) entirely.
			s.mu.Unlock()
			return existing, nil
		}
		dests := make([]string, len(cfg.Dests))
		copy(dests, cfg.Dests)
		existing.setDests(dests)
		// The bump must land inside the same critical section as setDests:
		// buildRoutes snapshots (generation, dests, In table) under mu, so a
		// bump outside the lock would let a racing builder resurrect the
		// just-invalidated cache under the still-current generation and route
		// sends to the old destinations until the bump finally lands.
		s.routeGen.Add(1)
		s.mu.Unlock()
		return existing, nil
	}
	s.mu.Unlock()

	dests := make([]string, len(cfg.Dests))
	copy(dests, cfg.Dests)

	if err := s.charge(portHeaderBytes); err != nil {
		return nil, fmt.Errorf("out port %q: %w", qname, err)
	}
	pool, err := s.ensurePool(cfg.Type)
	if err != nil {
		return nil, err
	}

	p := &OutPort{qname: qname, short: cfg.Name, typ: cfg.Type, smm: s, owner: c, pool: pool}
	p.label = telemetry.Label(qname)
	p.setDests(dests)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.out[qname]; dup {
		return nil, fmt.Errorf("%w: out port %q", ErrDuplicateName, qname)
	}
	s.out[qname] = p
	s.routeGen.Add(1)
	p.gauges = telemetry.Default.RegisterGauge("port_sent", qname, p.sent.Load)
	return p, nil
}

// charge allocates n bookkeeping bytes in the SMM's area.
func (s *SMM) charge(n int) error {
	return s.owner.Exec(func(ctx *memory.Context) error {
		_, err := ctx.Alloc(n)
		return err
	})
}

// ensurePool returns the message pool for typ, creating and charging it on
// first use.
func (s *SMM) ensurePool(typ MessageType) (*msgPool, error) {
	s.mu.Lock()
	if p, ok := s.msgPools[typ.Name]; ok {
		s.mu.Unlock()
		return p, nil
	}
	s.mu.Unlock()

	var p *msgPool
	err := s.owner.Exec(func(ctx *memory.Context) error {
		var perr error
		p, perr = newMsgPool(typ, s.area, ctx, s.owner.app.msgCap)
		return perr
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.msgPools[typ.Name]; ok {
		return existing, nil
	}
	s.msgPools[typ.Name] = p
	p.gauges = telemetry.Default.RegisterGauges(s.owner.name+"/"+typ.Name, map[string]func() int64{
		"msgpool_gets":          p.gets.Load,
		"msgpool_returns":       p.returns.Load,
		"msgpool_in_flight_max": p.inFlightMax.Load,
	})
	return p, nil
}

// poolFor returns the (already ensured) pool for typ; panics are avoided by
// falling back to ensurePool, whose only failure mode is area exhaustion.
func (s *SMM) poolFor(typ MessageType) *msgPool {
	s.mu.Lock()
	p := s.msgPools[typ.Name]
	s.mu.Unlock()
	if p != nil {
		return p
	}
	p, err := s.ensurePool(typ)
	if err != nil {
		// Report through the app and return an empty pool so callers see
		// ErrPoolEmpty rather than a nil dereference.
		s.owner.app.reportError(err)
		return &msgPool{typ: typ, area: s.area}
	}
	return p
}

// Connect instantiates (or finds) the named child and returns a Handle that
// keeps it alive until Disconnect — the paper's connect()/disconnect() with
// a handle, implemented with a wedge on the child's scope.
func (s *SMM) Connect(name string) (*Handle, error) {
	child, err := s.acquire(name, true)
	if err != nil {
		return nil, err
	}
	return &Handle{smm: s, child: child}, nil
}

// Disconnect releases a handle obtained from Connect (paper-style spelling;
// equivalent to h.Disconnect).
func (s *SMM) Disconnect(h *Handle) { h.Disconnect() }

// Handle keeps a child component instance alive.
type Handle struct {
	smm   *SMM
	child *Component

	mu       sync.Mutex
	released bool
}

// Component returns the pinned child instance.
func (h *Handle) Component() *Component { return h.child }

// Disconnect releases the handle. When it was the last thing keeping a
// quiescent child alive, the child is reclaimed. Disconnect is idempotent.
func (h *Handle) Disconnect() {
	h.mu.Lock()
	if h.released {
		h.mu.Unlock()
		return
	}
	h.released = true
	h.mu.Unlock()

	c := h.child
	c.liveMu.Lock()
	c.handles--
	// A disconnect is an explicit kill request: even persistent children
	// become eligible for reclamation once quiescent.
	c.autoDispose = true
	c.liveMu.Unlock()
	c.maybeQuiesce()
}

// acquire returns the named child's instance holding one reservation — a
// Connect handle when handle is set, a pending delivery otherwise — so it
// cannot quiesce before the caller uses it. It is the §2.2 proxy check: a
// live instance in the table is reserved, a dormant Reusable shell is
// revived in place, and otherwise a new instance is built. Building and
// reviving serialise on instMu; s.mu is never held across user code.
func (s *SMM) acquire(name string, handle bool) (*Component, error) {
	s.mu.Lock()
	if c := s.children[name]; c != nil && c.reserve(handle) {
		s.mu.Unlock()
		return c, nil
	}
	s.mu.Unlock()

	s.instMu.Lock()
	// Re-check under instMu: another goroutine may have built or revived
	// the child. Under instMu a disposed entry stays a dormant shell — only
	// instMu holders revive or swap it out.
	s.mu.Lock()
	shell := s.children[name]
	if shell != nil && shell.reserve(handle) {
		s.mu.Unlock()
		s.instMu.Unlock()
		return shell, nil
	}
	stopped := s.stopped.Load()
	s.mu.Unlock()
	if stopped {
		s.instMu.Unlock()
		return nil, ErrStopped
	}

	def := s.owner.childDef(name)
	if def == nil {
		s.instMu.Unlock()
		return nil, fmt.Errorf("%w: %q in %q", ErrUnknownChild, name, s.owner.name)
	}
	child, err := s.instantiate(def, shell, handle)
	s.instMu.Unlock()
	if err != nil {
		return nil, err
	}

	// Run the start function outside instMu so it may send messages —
	// including to siblings whose instantiation needs the same lock.
	// Deliveries racing in meanwhile park in waitStarted.
	startErr := child.runStart()
	child.markStarted()
	if startErr != nil {
		child.forceDispose()
		return nil, fmt.Errorf("child %q start: %w", def.Name, startErr)
	}
	return child, nil
}

// instantiate brings a child instance up from its blueprint: acquire the
// scoped area (from the level's pool when requested) and pin it under the
// owner's area, then revive the dormant shell in place or build a new
// instance (charge the component header, run Setup). The instance is
// published in the children table already holding the caller's
// reservation. The caller (acquire, holding instMu) runs the start
// function afterwards.
func (s *SMM) instantiate(def *ChildDef, shell *Component, handle bool) (*Component, error) {
	app := s.owner.app
	level := s.owner.level + 1

	var area *memory.Area
	if def.UsePool {
		pool := app.ScopePool(level)
		if pool == nil {
			return nil, fmt.Errorf("core: child %q wants the level-%d scope pool, but none is configured", def.Name, level)
		}
		var err error
		area, err = pool.Acquire()
		if err != nil {
			return nil, fmt.Errorf("child %q: %w", def.Name, err)
		}
	} else {
		area = app.model.NewLTScoped(s.owner.Path()+"/"+def.Name, def.MemorySize)
	}

	wedge, err := memory.Pin(area, s.area)
	if err != nil {
		return nil, fmt.Errorf("child %q: %w", def.Name, err)
	}

	if shell != nil {
		return s.revive(shell, area, wedge, handle)
	}

	child := &Component{
		app:         app,
		name:        def.Name,
		parent:      s.owner,
		area:        area,
		wedge:       wedge,
		level:       level,
		mgr:         s,
		def:         def,
		autoDispose: !def.Persistent,
	}
	fail := func(err error) (*Component, error) {
		wedge.Release()
		return nil, err
	}
	if err := child.Exec(func(ctx *memory.Context) error {
		_, aerr := ctx.Alloc(componentHeaderBytes)
		return aerr
	}); err != nil {
		return fail(fmt.Errorf("child %q header: %w", def.Name, err))
	}
	s.owner.childBorn()
	if err := def.Setup(child); err != nil {
		s.owner.childGone()
		return fail(fmt.Errorf("child %q setup: %w", def.Name, err))
	}

	s.mu.Lock()
	s.children[def.Name] = child
	child.liveMu.Lock()
	child.reserveLocked(handle)
	child.liveMu.Unlock()
	s.mu.Unlock()
	return child, nil
}

// revive re-arms a dormant Reusable shell in place with a freshly acquired
// area (already pinned by the caller): the chain's own-area slot is
// swapped, the header is re-charged, and the shell goes live — the disposed
// flip and the caller's reservation in one s.mu critical section. Its port
// bindings were kept while it was dormant, so they already name it. started
// is cleared first; the caller (acquire) re-runs the start function and
// marks it. The previous life's own SMM and wedge were taken out of the
// shell when it was disposed, so their teardown may still be running. Runs
// under instMu.
func (s *SMM) revive(c *Component, area *memory.Area, wedge *memory.Wedge, handle bool) (*Component, error) {
	c.area = area
	c.wedge = wedge
	if n := len(c.chain); n > 0 {
		// The cached scope chain ends at the instance's own area, which
		// changes per revival (the pool may hand back a different region).
		c.chain[n-1] = area
	}
	c.started.Store(false)

	if err := c.Exec(func(ctx *memory.Context) error {
		_, aerr := ctx.Alloc(componentHeaderBytes)
		return aerr
	}); err != nil {
		// Drop the shell: the next instantiation builds from scratch.
		c.wedge = nil
		wedge.Release()
		s.mu.Lock()
		s.detachLocked(c)
		s.mu.Unlock()
		return nil, fmt.Errorf("child %q header: %w", c.name, err)
	}
	s.owner.childBorn()

	s.mu.Lock()
	c.liveMu.Lock()
	c.disposed = false
	c.autoDispose = !c.def.Persistent
	c.reserveLocked(handle)
	c.liveMu.Unlock()
	s.mu.Unlock()
	return c, nil
}

// dispose takes c out of service: in one s.mu critical section it flips
// disposed (unless c is already disposed or, without force, no longer
// idle), changes the children table, and takes the instance's own SMM and
// wedge out of it. A Reusable instance the table still names stays there
// as a dormant shell with its port bindings intact; any other instance —
// transient, forced, or swapped out of the table — is detached. The
// teardown of the taken resources runs after the lock is dropped, so a
// revival may proceed concurrently with it. It reports whether c was
// disposed by this call.
func (s *SMM) dispose(c *Component, force bool) bool {
	s.mu.Lock()
	c.liveMu.Lock()
	if c.disposed || !force && !c.idleLocked() {
		c.liveMu.Unlock()
		s.mu.Unlock()
		return false
	}
	c.disposed = true
	if c.disposeWait != nil {
		close(c.disposeWait)
		c.disposeWait = nil
	}
	c.liveMu.Unlock()
	if force || !c.def.Reusable || s.children[c.name] != c {
		s.detachLocked(c)
	}
	wedge := c.wedge
	c.wedge = nil
	c.app.mu.Lock()
	own := c.smm
	c.smm = nil
	c.app.mu.Unlock()
	s.mu.Unlock()

	teardown(own, wedge)
	return true
}

// detachLocked drops c from the children table and unbinds its ports. The
// port structures stay registered so a future instantiation reuses them,
// and an In port keeps its handler so deliveries already buffered drain
// against it. s.mu is held.
func (s *SMM) detachLocked(c *Component) {
	if s.children[c.name] == c {
		delete(s.children, c.name)
	}
	for _, p := range s.in {
		if owner, _ := p.binding(); owner == c {
			p.unbind()
		}
	}
	for _, p := range s.out {
		p.mu.Lock()
		if p.owner == c {
			p.owner = nil
		}
		p.mu.Unlock()
	}
}

// resolveIn returns the In port for a qualified destination name together
// with its owner, reserved for one delivery — instantiating or reviving the
// owning child if needed. This is the proxy behaviour of §2.2: "the SMM
// checks the proxies for the existing component or, if none are found,
// creates a new scoped memory component which should receive the message".
// The port's current binding is tried first (shadow ports name components
// another SMM manages); otherwise acquire hands back a reserved instance,
// so there is no race left to retry.
func (s *SMM) resolveIn(qname string) (*InPort, *Component, error) {
	compName, _, ok := strings.Cut(qname, ".")
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q is not a qualified name", ErrUnknownPort, qname)
	}
	s.mu.Lock()
	p := s.in[qname]
	s.mu.Unlock()
	if p != nil {
		if owner, _ := p.binding(); owner != nil && owner.reserve(false) {
			return p, owner, nil
		}
	}
	if compName == s.owner.name {
		if p == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPort, qname)
		}
		// The owner itself is never transient; a nil binding here means
		// the app is stopping.
		return nil, nil, ErrStopped
	}
	owner, err := s.acquire(compName, false)
	if err != nil {
		return nil, nil, fmt.Errorf("deliver to %q: %w", qname, err)
	}
	if p == nil {
		s.mu.Lock()
		p = s.in[qname]
		s.mu.Unlock()
	}
	if p == nil {
		owner.donePending()
		owner.maybeQuiesce()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownPort, qname)
	}
	return p, owner, nil
}

// routeSet is one OutPort's cached resolution of destination names to In
// ports; it stays valid while gen matches the SMM's routeGen.
type routeSet struct {
	gen    uint64
	routes []route
}

// route is one cached destination. in is nil when the port was not yet
// registered at build time (the owning child has never been instantiated);
// such routes resolve through the slow path until a registration bumps the
// generation.
type route struct {
	in   *InPort
	dest string
}

// routesFor returns p's cached route set, rebuilding it when port
// registration has invalidated it. In the steady state this is one atomic
// load and a generation compare — no SMM lock, no map lookups, no string
// work per message.
func (s *SMM) routesFor(p *OutPort) *routeSet {
	gen := s.routeGen.Load()
	if rs := p.routes.Load(); rs != nil && rs.gen == gen {
		return rs
	}
	return s.buildRoutes(p)
}

// buildRoutes resolves p's destination names against the In-port table. The
// generation, the destination list, and the table are snapshotted in one mu
// critical section — every route-flipping writer commits its change and its
// bump inside that same lock, so a built set is always consistent with the
// generation it carries. The publish is a CAS that never replaces a
// newer-generation set: a builder descheduled across a route flip would
// otherwise clobber the fresh cache with a stale one, un-invalidating it for
// every sender until the next flip.
func (s *SMM) buildRoutes(p *OutPort) *routeSet {
	s.mu.Lock()
	gen := s.routeGen.Load()
	dests := p.Dests()
	rs := &routeSet{gen: gen, routes: make([]route, len(dests))}
	for i, d := range dests {
		rs.routes[i] = route{in: s.in[d], dest: d}
	}
	s.mu.Unlock()
	for {
		cur := p.routes.Load()
		if cur != nil && cur.gen > rs.gen {
			// A racing builder published a newer resolution; keep it. The
			// stale set is still internally consistent, so this dispatch may
			// use it — its sends land on ports that were current when the
			// snapshot was taken, exactly as if the send had happened then.
			return rs
		}
		if p.routes.CompareAndSwap(cur, rs) {
			return rs
		}
	}
}

// send routes one message per the SMM's configured mechanism.
func (s *SMM) send(p *OutPort, proc *Proc, msg Message, prio sched.Priority) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	mech := Mechanism(s.mechanism.Load())
	rs := s.routesFor(p)
	if len(rs.routes) == 0 {
		return fmt.Errorf("%w: out port %q has no destinations", ErrUnknownPort, p.qname)
	}

	// Stamp the absolute deadline once per send; every receiver inherits it.
	var deadline int64
	if d := p.sendDeadline.Load(); d > 0 {
		deadline = telemetry.Now() + d
	}

	var err error
	switch mech {
	case MechanismSharedObject:
		err = s.sendShared(p, msg, prio, deadline, rs)
	case MechanismSerialization:
		err = s.sendSerialized(p, msg, prio, deadline, rs)
	case MechanismHandoff:
		if proc == nil {
			return fmt.Errorf("%w: out port %q", ErrNeedsCallerContext, p.qname)
		}
		err = s.sendHandoff(p, proc, msg, prio, deadline, rs)
	default:
		err = fmt.Errorf("core: unknown mechanism %v", mech)
	}
	if err == nil {
		p.sent.Add(1)
		telemetry.RecordVerbose(telemetry.EvSend, p.label, 0, 0, uint64(prio))
	}
	return err
}

// sendShared implements the default shared-object mechanism: the pooled
// message itself is enqueued for every receiver and returns to the pool
// after the last one processes it.
func (s *SMM) sendShared(p *OutPort, msg Message, prio sched.Priority, deadline int64, rs *routeSet) error {
	env := newEnvelope(msg, p.msgPool(), len(rs.routes))
	var firstErr error
	for i := range rs.routes {
		if err := s.deliverAsync(p, &rs.routes[i], env, msg, prio, deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sendSerialized implements the serialization mechanism: the message is
// encoded once, returned to its pool immediately, and an independent copy
// is rebuilt for every receiver.
func (s *SMM) sendSerialized(p *OutPort, msg Message, prio sched.Priority, deadline int64, rs *routeSet) error {
	bm, ok := msg.(encoding.BinaryMarshaler)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotSerializable, p.typ.Name)
	}
	data, err := bm.MarshalBinary()
	if err != nil {
		return fmt.Errorf("serialize %q: %w", p.typ.Name, err)
	}
	p.msgPool().put(msg)

	var firstErr error
	for i := range rs.routes {
		fresh := p.typ.New()
		um, ok := fresh.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotSerializable, p.typ.Name)
		}
		if err := um.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("deserialize %q: %w", p.typ.Name, err)
		}
		env := newEnvelope(fresh, nil, 1) // no pool: the copy is dropped
		if err := s.deliverAsync(p, &rs.routes[i], env, fresh, prio, deadline); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reserveDest returns r's In port with its owner reserved for one
// delivery. The cached route resolves the In port without touching the
// SMM; the slow path (unregistered port, dormant, disposed or
// never-instantiated owner) falls back to resolveIn, which acquires the
// owning child.
func (s *SMM) reserveDest(r *route) (*InPort, *Component, error) {
	if in := r.in; in != nil {
		if o, _ := in.binding(); o != nil && o.reserve(false) {
			return in, o, nil
		}
	}
	return s.resolveIn(r.dest)
}

// deliverAsync reserves the destination owner, enqueues the item, and
// schedules a dispatch at the message priority.
func (s *SMM) deliverAsync(p *OutPort, r *route, env *envelope, msg Message, prio sched.Priority, deadline int64) error {
	in, owner, err := s.reserveDest(r)
	if err != nil {
		env.done()
		return err
	}
	if in.typ.Name != p.typ.Name {
		owner.donePending()
		env.done()
		return fmt.Errorf("%w: %q sends %q, %q accepts %q",
			ErrTypeMismatch, p.qname, p.typ.Name, r.dest, in.typ.Name)
	}
	victim, evicted, err := in.push(bufItem{env: env, msg: msg, prio: prio, owner: owner, deadline: deadline})
	if err != nil {
		owner.donePending()
		owner.maybeQuiesce()
		env.done()
		return err
	}
	if evicted {
		// An overflow policy shed a queued delivery to admit this one:
		// release the victim's reservations outside the port lock. The
		// dispatch already submitted for the victim will pop a different
		// (newer) item or nothing — both are fine.
		if sa, ok := victim.msg.(ShedAware); ok {
			sa.OnShed()
		}
		victim.owner.donePending()
		victim.owner.maybeQuiesce()
		victim.env.done()
	}
	if err := in.pool.Submit(prio, in.dispatchFn); err != nil {
		// Pool already shut down. Retract exactly the item just pushed —
		// popping an arbitrary one could orphan a different sender's
		// delivery while this one stays queued against a recycled
		// completion channel.
		if it, ok := in.removeItem(env, msg); ok {
			it.owner.donePending()
			it.env.done()
		}
		return err
	}
	return nil
}

// dispatchState carries one in-flight dispatch through the owner's memory
// context. Instances are pooled and each owns a preconstructed closure over
// itself, so the steady-state dispatch allocates neither a closure nor a
// Proc. Handlers must not retain the *Proc past the call (the same contract
// as for the message itself).
type dispatchState struct {
	smm     *SMM
	it      bufItem
	handler Handler
	prio    sched.Priority
	proc    Proc
	fn      func(*memory.Context) error
}

var dispatchStatePool = sync.Pool{New: func() any {
	ds := new(dispatchState)
	ds.fn = func(ctx *memory.Context) error {
		ds.proc = Proc{comp: ds.it.owner, smm: ds.smm, ctx: ctx, prio: ds.prio}
		return ds.smm.process(ds.handler, &ds.proc, ds.it.msg)
	}
	return ds
}}

// dispatch runs on a pool worker (or inline for synchronous ports): it pops
// one buffered message and processes it in the owner's memory context.
func (s *SMM) dispatch(in *InPort, prio sched.Priority) {
	it, ok := in.pop()
	if !ok {
		return
	}
	owner := it.owner
	// Never process a message before the owner finished initialising. (A
	// synchronous port whose owner sends to itself from its own start
	// function would deadlock here; send asynchronously or after Start.)
	owner.waitStarted()
	telemetry.RecordVerbose(telemetry.EvDispatch, in.label, 0, 0, uint64(prio))
	// Deadline check: the handler is about to start; if the deadline already
	// passed, the message is late no matter how fast processing is. A
	// ShedExpired port drops the dead message here instead of executing it —
	// counted as a deadline shed, never as a miss or a dispatch latency,
	// because the handler never ran.
	if it.deadline > 0 {
		if now := telemetry.Now(); now > it.deadline {
			if in.shedExpired {
				telemetry.ReportDeadlineShed(in.label, it.deadline, now, 0, int(it.prio))
				in.dropped.Add(1)
				in.recordShed(it.prio, shedCauseExpired)
				if sa, ok := it.msg.(ShedAware); ok {
					sa.OnShed()
				}
				it.env.done()
				owner.donePending()
				owner.maybeQuiesce()
				return
			}
			telemetry.ReportDeadlineMiss(in.label, it.deadline, now, 0, int(prio))
		}
	}
	_, handler := in.binding()
	if handler == nil {
		// Owner disposed between push and dispatch with no rebinding; the
		// message is dropped.
		s.owner.app.reportError(fmt.Errorf("core: %q: no handler bound", in.qname))
	} else {
		ds := dispatchStatePool.Get().(*dispatchState)
		ds.smm, ds.it, ds.handler, ds.prio = s, it, handler, prio
		err := owner.Exec(ds.fn)
		ds.smm, ds.it, ds.handler, ds.proc = nil, bufItem{}, nil, Proc{}
		dispatchStatePool.Put(ds)
		if err != nil {
			s.owner.app.reportError(fmt.Errorf("core: %q handler: %w", in.qname, err))
		}
	}
	in.markProcessed()
	it.env.done()
	owner.donePending()
	owner.maybeQuiesce()
}

// process invokes a handler, converting panics into errors so one failing
// component cannot take the application down.
func (s *SMM) process(h Handler, p *Proc, msg Message) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: handler panic: %v", r)
		}
	}()
	return h.Process(p, msg)
}

// sendHandoff implements the handoff pattern: the sending thread leaves its
// own scope via the common ancestor (the SMM's area, already on its scope
// stack) and enters the receiver's area to run the handler synchronously.
func (s *SMM) sendHandoff(p *OutPort, proc *Proc, msg Message, prio sched.Priority, deadline int64, rs *routeSet) error {
	var firstErr error
	for i := range rs.routes {
		r := &rs.routes[i]
		in, owner, err := s.reserveDest(r)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if in.typ.Name != p.typ.Name {
			owner.donePending()
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %q sends %q, %q accepts %q",
					ErrTypeMismatch, p.qname, p.typ.Name, r.dest, in.typ.Name)
			}
			continue
		}
		owner.waitStarted()
		if deadline > 0 {
			if now := telemetry.Now(); now > deadline {
				telemetry.ReportDeadlineMiss(in.label, deadline, now, 0, int(prio))
			}
		}
		_, handler := in.binding()
		err = proc.ctx.ExecuteInArea(s.area, func(actx *memory.Context) error {
			run := func(hctx *memory.Context) error {
				return s.process(handler, &Proc{comp: owner, smm: s, ctx: hctx, prio: prio}, msg)
			}
			if owner.area == s.area {
				return run(actx)
			}
			return actx.Enter(owner.area, run)
		})
		in.received.Add(1)
		in.processed.Add(1)
		owner.donePending()
		owner.maybeQuiesce()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.msgPool().put(msg)
	return firstErr
}

// shutdown drains and stops every pool owned by this SMM, then disposes
// live children bottom-up.
func (s *SMM) shutdown() {
	if s.stopped.Swap(true) {
		return
	}
	s.mu.Lock()
	pools := make([]*sched.Pool, len(s.pools))
	copy(pools, s.pools)
	s.mu.Unlock()

	for _, p := range pools {
		p.Shutdown()
	}

	s.mu.Lock()
	children := make([]*Component, 0, len(s.children))
	for _, c := range s.children {
		children = append(children, c)
	}
	// Retire this SMM's telemetry gauges so long-lived processes (tests,
	// servers cycling applications) do not accumulate dead entries, and
	// wake any senders parked on OverflowBlock ports.
	for _, p := range s.in {
		p.closePort()
		p.gauges.Unregister()
	}
	for _, p := range s.out {
		p.gauges.Unregister()
	}
	for _, mp := range s.msgPools {
		mp.gauges.Unregister()
	}
	if s.genGauge != nil {
		s.genGauge.Unregister()
		s.genGauge = nil
	}
	s.mu.Unlock()
	for _, c := range children {
		c.forceDispose()
	}
}
