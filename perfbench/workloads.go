package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/corba"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/sched"
	"repro/internal/transport"
)

// workload is one traffic mix. ORB settings not named here or in build
// are the library defaults, and Collocate stays off, so every call
// crosses a connection.
type workload struct {
	name string
	// procs is the GOMAXPROCS the run uses; 0 means every CPU.
	procs int
	// tcp selects loopback TCP; otherwise the in-process pipe network.
	tcp bool
	// fig11 runs both ORB ends Synchronous with four pooled scopes, the
	// experiments.RunFig11 configuration.
	fig11 bool
	// callers is the closed-loop caller count; 0 selects the surge open
	// loop.
	callers          int
	minSize, maxSize int
}

var workloads = []workload{
	{name: "lockstep", procs: 1, fig11: true, callers: 1, minSize: 32, maxSize: 1024},
	{name: "pipelined", procs: 1, tcp: true, callers: 16, minSize: 256, maxSize: 256},
	{name: "pipelined_mc", procs: 0, tcp: true, callers: 16, minSize: 256, maxSize: 256},
	{name: "surge", procs: 1, callers: 0, minSize: 256, maxSize: 256},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) gomaxprocs() int {
	if w.procs == 0 {
		return runtime.NumCPU()
	}
	return w.procs
}

// The surge mix. The servant holds each call for surgeHold, so one
// connection's default eight request lanes serve at most 8k calls/s; with
// the sleep's overshoot on one core they serve about 6k. The two tenants
// together offer about 1.5x that, and tier 0 alone stays far below it.
const (
	surgeHold      = time.Millisecond
	surgeTier0Rate = 1000
	surgeBERate    = 8000
	// surgeGate bounds each tenant's calls inside Invoke to half its
	// client's default pipeline depth. The arrivals due during a host stall
	// are released at once; beyond the gate they wait their turn, still
	// timed from their due time, instead of overflowing
	// the client pipeline as refusals that never reach the server's
	// admission control, which is what the surge measures.
	surgeGate = orb.DefaultPipelineDepth / 2
	// surgeMaxOutstanding bounds the open loop's goroutines; an arrival
	// beyond it is not sent and counts as a failed call.
	surgeMaxOutstanding = 20000
)

// surgeControl is the server's overload controller: library defaults but
// for two settings. The in-flight limit is capped at two connections'
// worth of request lanes: above that a connection's request queue fills,
// its reader stops reading, and the excess would back up into the client
// instead of reaching admission control. The p99 target sits well above
// the ~10 ms tier-0 tail that the Go collector's pauses cause on one core,
// so the limiter answers sustained queueing, not collector pauses; at the
// default 5 ms the limit and the brown-out ladder flip between states from
// run to run.
var surgeControl = overload.Config{MaxLimit: 2 * orb.DefaultConcurrency, TargetP99: 50 * time.Millisecond}

// surgeTenant is one open-loop traffic source with its own connection.
type surgeTenant struct {
	tenant overload.Tenant
	prio   sched.Priority
	rate   float64
}

var surgeTenants = []surgeTenant{
	{tenant: overload.Tenant{ID: 1, Tier: overload.Tier0}, prio: 24, rate: surgeTier0Rate},
	{tenant: overload.Tenant{ID: 2, Tier: overload.TierBestEffort}, prio: 4, rate: surgeBERate},
}

// holdServant holds each call for a fixed service time, then echoes.
type holdServant struct{ d time.Duration }

func (s holdServant) Invoke(op string, in []byte) ([]byte, error) {
	time.Sleep(s.d)
	return corba.EchoServant{}.Invoke(op, in)
}

// payloadSet is the seeded request content: templates of seeded size and
// bytes. Each call copies one into its own buffer and stamps its call id.
type payloadSet struct {
	tmpl    [][]byte
	maxSize int
}

func newPayloadSet(seed uint64, n, minSize, maxSize int) *payloadSet {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	p := &payloadSet{tmpl: make([][]byte, n), maxSize: maxSize}
	for i := range p.tmpl {
		b := make([]byte, minSize+rng.IntN(maxSize-minSize+1))
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		p.tmpl[i] = b
	}
	return p
}

// fill builds call id's request from template i in buf, which must hold
// maxSize bytes.
func (p *payloadSet) fill(buf []byte, i int, id uint64) []byte {
	t := p.tmpl[i%len(p.tmpl)]
	req := buf[:len(t)]
	copy(req, t)
	stampCallID(req, id)
	return req
}

// rig is one built system: a server and one client per tenant.
type rig struct {
	srv     *orb.Server
	clients []*orb.Client
	ctrl    *overload.Controller
}

func (r *rig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.srv.Close()
	if r.ctrl != nil {
		r.ctrl.Close()
	}
}

// setupCallTimeout bounds each first call of a setup.
const setupCallTimeout = 20 * time.Second

// build constructs the workload's server and clients on net and returns
// once every client has had one correct reply.
func (w workload) build(net transport.Network, servant corba.Servant, pl *payloadSet) (*rig, error) {
	scfg := orb.ServerConfig{Network: net}
	if w.tcp {
		scfg.Addr = "127.0.0.1:0"
	}
	if w.fig11 {
		scfg.ScopePoolCount, scfg.Synchronous = 4, true
	}
	r := &rig{}
	if w.callers == 0 {
		r.ctrl = overload.NewController(surgeControl)
		scfg.Overload = r.ctrl
	}
	srv, err := orb.NewServer(scfg)
	if err != nil {
		if r.ctrl != nil {
			r.ctrl.Close()
		}
		return nil, fmt.Errorf("server: %w", err)
	}
	r.srv = srv
	srv.RegisterServant("echo", servant)
	srv.ServeBackground()

	tenants := []overload.Tenant{{}}
	if w.callers == 0 {
		tenants = tenants[:0]
		for _, t := range surgeTenants {
			tenants = append(tenants, t.tenant)
		}
	}
	for i, tn := range tenants {
		ccfg := orb.ClientConfig{Network: net, Addr: srv.Addr(), Tenant: tn}
		if w.fig11 {
			ccfg.ScopePoolCount, ccfg.Synchronous = 4, true
		}
		cl, err := orb.DialClient(ccfg)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("client: %w", err)
		}
		r.clients = append(r.clients, cl)
		buf := make([]byte, pl.maxSize)
		req := pl.fill(buf, i, 1<<62|uint64(i))
		if err := boundedCall(cl, req, sched.NormPriority, setupCallTimeout); err != nil {
			r.close()
			return nil, fmt.Errorf("first call: %w", err)
		}
	}
	return r, nil
}

// boundedCall makes one checked call that must finish within timeout. A
// call that hangs is abandoned on its goroutine.
func boundedCall(cl *orb.Client, req []byte, prio sched.Priority, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() {
		reply, err := cl.Invoke("echo", "echo", req, prio)
		if err == nil && string(reply) != string(req) {
			err = fmt.Errorf("echo mismatch: %d bytes back for %d", len(reply), len(req))
		}
		done <- err
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return fmt.Errorf("no reply within %v", timeout)
	}
}
