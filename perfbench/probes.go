package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/corba"
	"repro/internal/experiments"
	"repro/internal/giop"
	"repro/internal/memory"
	"repro/internal/orb"
	"repro/internal/overload"
	"repro/internal/rtzen"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Probe sizes: each probe times calls into one layer's exported API on the
// workload's own seeded payloads.
const (
	probeWarm     = 2000
	probeCalls    = 20000
	probeBlocks   = 10   // alternating ORB/RTZen (and traced/untraced) blocks
	probeBlock    = 1000 // calls per block
	probeMicroOps = 200000
)

// scopePools returns the server's and clients' pooled-scope pools, when
// the workload configured them.
func scopePools(r *rig) []*memory.ScopePool {
	var ps []*memory.ScopePool
	if p := r.srv.App().ScopePool(3); p != nil {
		ps = append(ps, p)
	}
	for _, cl := range r.clients {
		if p := cl.App().ScopePool(2); p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

// portQueueMax is the deepest any connection's RequestProcessing in port
// has been on the server.
func portQueueMax(r *rig) int64 {
	orbComp := r.srv.App().Component("ORB")
	if orbComp == nil {
		return 0
	}
	poa := orbComp.SMM().Child("POA")
	if poa == nil {
		return 0
	}
	var max int64
	for i := 1; i <= len(r.clients); i++ {
		tc := poa.SMM().Child(fmt.Sprintf("Transport%d", i))
		if tc == nil {
			continue
		}
		if p, err := tc.SMM().GetInPort("request"); err == nil && p.QueueMax() > max {
			max = p.QueueMax()
		}
	}
	return max
}

// echoCaller is the caller side of a lockstep echo pair.
type echoCaller interface {
	Invoke(key, op string, payload []byte, prio sched.Priority) ([]byte, error)
	Close()
}

type closer interface{ Close() }

// lockstepPair builds a Fig. 11 echo pair — the Compadres ORB in the
// RunFig11 configuration, or RTZen — on an in-process network.
func lockstepPair(zen bool, net transport.Network, servant corba.Servant) (echoCaller, closer, error) {
	if zen {
		srv, err := rtzen.NewServer(rtzen.ServerConfig{Network: net})
		if err != nil {
			return nil, nil, err
		}
		srv.RegisterServant("echo", servant)
		srv.ServeBackground()
		cl, err := rtzen.DialClient(rtzen.ClientConfig{Network: net, Addr: srv.Addr()})
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		return cl, srv, nil
	}
	srv, err := orb.NewServer(orb.ServerConfig{Network: net, ScopePoolCount: 4, Synchronous: true})
	if err != nil {
		return nil, nil, err
	}
	srv.RegisterServant("echo", servant)
	srv.ServeBackground()
	cl, err := orb.DialClient(orb.ClientConfig{Network: net, Addr: srv.Addr(), ScopePoolCount: 4, Synchronous: true})
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return cl, srv, nil
}

// echoBlock makes n checked lockstep calls, recording each round trip
// (and, with a span log, an invoke span of the given kind).
func echoBlock(cl echoCaller, pl *payloadSet, first, n int, log *spanLog, kind spanKind, rt *[]int64, clk *clock) error {
	buf := make([]byte, pl.maxSize)
	for i := first; i < first+n; i++ {
		id := uint64(i) + 1
		req := pl.fill(buf, i, id)
		if log != nil {
			log.current.Store(id)
		}
		start := clk.now()
		reply, err := cl.Invoke("echo", "echo", req, sched.NormPriority)
		end := clk.now()
		if err != nil {
			return err
		}
		if string(reply) != string(req) {
			return fmt.Errorf("echo mismatch on call %d", id)
		}
		if rt != nil {
			*rt = append(*rt, end-start)
		}
		if log != nil {
			log.add(span{call: id, start: start, end: end, kind: kind})
		}
	}
	return nil
}

// probeLayers runs every layer probe and reports its metrics. A probe
// that fails reports -1 and a note, so one broken layer does not hide the
// others.
func probeLayers(res *result, pl *payloadSet, seed uint64) {
	fail := func(names []string, units []string, err error) {
		res.notes = append(res.notes, fmt.Sprintf("probe %s: %v", names[0], err))
		for i, n := range names {
			res.add(n, -1, units[i])
		}
	}
	if v, err := probeSizes(seed); err != nil {
		fail([]string{"orb.rt_p50_us.32B", "orb.rt_p50_us.1024B"}, []string{"us", "us"}, err)
	} else {
		res.add("orb.rt_p50_us.32B", v[0], "us")
		res.add("orb.rt_p50_us.1024B", v[1], "us")
	}
	names := []string{"rtzen.rt_p50_us", "rtzen.req_path_p50_us", "rtzen.reply_path_p50_us", "orb.vs_rtzen_p50", "trace.overhead_frac"}
	units := []string{"us", "us", "us", "ratio", "frac"}
	if v, err := probeVsRTZen(pl); err != nil {
		fail(names, units, err)
	} else {
		for i, n := range names {
			res.add(n, v[i], units[i])
		}
	}
	res.add("giop.codec_ns_per_op", probeCodec(pl), "ns")
	if v, err := probePingPong(); err != nil {
		fail([]string{"core.pingpong_rt_p50_us", "core.pingpong_transient_rt_p50_us"}, []string{"us", "us"}, err)
	} else {
		res.add("core.pingpong_rt_p50_us", v[0], "us")
		res.add("core.pingpong_transient_rt_p50_us", v[1], "us")
	}
	if v, err := probeExecInArea(); err != nil {
		fail([]string{"memory.exec_in_area_ns"}, []string{"ns"}, err)
	} else {
		res.add("memory.exec_in_area_ns", v, "ns")
	}
	res.add("sched.pool_handoff_ns", probePoolHandoff(), "ns")
	res.add("sched.fairqueue_ns", probeFairQueue(seed), "ns")
	res.add("overload.admit_done_ns", probeAdmitDone(seed), "ns")
}

// probeSizes separates per-call from per-byte cost: lockstep round trips
// at the smallest and largest Fig. 11 sizes.
func probeSizes(seed uint64) ([2]float64, error) {
	var out [2]float64
	for i, size := range []int{32, 1024} {
		pl := newPayloadSet(seed, 64, size, size)
		cl, srv, err := lockstepPair(false, transport.NewInproc(), corba.EchoServant{})
		if err != nil {
			return out, err
		}
		clk := &clock{base: time.Now()}
		var rt []int64
		err = echoBlock(cl, pl, 0, probeWarm, nil, 0, nil, clk)
		if err == nil {
			err = echoBlock(cl, pl, probeWarm, probeCalls, nil, 0, &rt, clk)
		}
		cl.Close()
		srv.Close()
		if err != nil {
			return out, err
		}
		out[i] = float64(quantile(rt, 0.5)) / 1e3
	}
	return out, nil
}

// probeVsRTZen runs the Compadres ORB and RTZen in alternating blocks on
// the same payload sequence, with spans around each Invoke and servant
// call, and a third, untraced Compadres pair for the tracing overhead. It
// returns RTZen's round trip, request path and reply path medians, the
// ORB-to-RTZen round-trip ratio and the traced-over-untraced overhead.
func probeVsRTZen(pl *payloadSet) ([5]float64, error) {
	var out [5]float64
	clk := &clock{base: time.Now()}
	log := newSpanLog(clk, 2*probeBlocks*probeBlock*8)
	log.on.Store(true)
	orbCl, orbSrv, err := lockstepPair(false, &tracedNet{inner: transport.NewInproc(), log: log},
		tracedServant{inner: corba.EchoServant{}, log: log, kind: spanServant})
	if err != nil {
		return out, err
	}
	defer orbSrv.Close()
	defer orbCl.Close()
	zenCl, zenSrv, err := lockstepPair(true, &tracedNet{inner: transport.NewInproc(), log: log},
		tracedServant{inner: corba.EchoServant{}, log: log, kind: spanZenServant})
	if err != nil {
		return out, err
	}
	defer zenSrv.Close()
	defer zenCl.Close()
	bareCl, bareSrv, err := lockstepPair(false, transport.NewInproc(), corba.EchoServant{})
	if err != nil {
		return out, err
	}
	defer bareSrv.Close()
	defer bareCl.Close()

	log.on.Store(false)
	for _, cl := range []echoCaller{orbCl, zenCl, bareCl} {
		if err := echoBlock(cl, pl, 0, probeWarm, nil, 0, nil, clk); err != nil {
			return out, err
		}
	}
	log.on.Store(true)
	var bare []int64
	for b := 0; b < probeBlocks; b++ {
		// Call ids of the two traced ORBs are disjoint, so spans pair up.
		first := b * probeBlock
		if err := echoBlock(orbCl, pl, first, probeBlock, log, spanInvoke, nil, clk); err != nil {
			return out, err
		}
		if err := echoBlock(zenCl, pl, probeBlocks*probeBlock+first, probeBlock, log, spanZenInvoke, nil, clk); err != nil {
			return out, err
		}
		if err := echoBlock(bareCl, pl, first, probeBlock, nil, 0, &bare, clk); err != nil {
			return out, err
		}
	}
	spans := log.recorded()
	_, _, orbRT := pathStats(spans, spanInvoke, spanServant)
	zenReq, zenReply, zenRT := pathStats(spans, spanZenInvoke, spanZenServant)
	orbP50 := float64(quantile(orbRT, 0.5))
	zenP50 := float64(quantile(zenRT, 0.5))
	out[0] = zenP50 / 1e3
	out[1] = float64(quantile(zenReq, 0.5)) / 1e3
	out[2] = float64(quantile(zenReply, 0.5)) / 1e3
	if zenP50 > 0 {
		out[3] = orbP50 / zenP50
	}
	if bareP50 := float64(quantile(bare, 0.5)); bareP50 > 0 {
		out[4] = orbP50/bareP50 - 1
	}
	return out, nil
}

// probeCodec times the four GIOP codec calls of one round trip on the
// workload's payloads.
func probeCodec(pl *payloadSet) float64 {
	buf := make([]byte, 0, giop.HeaderSize+256+pl.maxSize)
	var req giop.Request
	var rep giop.Reply
	key := []byte("echo")
	start := time.Now()
	for i := 0; i < probeMicroOps; i++ {
		payload := pl.tmpl[i%len(pl.tmpl)]
		wire := giop.MarshalRequest(buf[:0], giop.BigEndian, &giop.Request{
			RequestID: uint32(i), ResponseExpected: true, ObjectKey: key,
			Operation: "echo", Priority: byte(sched.NormPriority), Payload: payload,
		})
		if err := giop.DecodeRequest(giop.BigEndian, wire[giop.HeaderSize:], &req); err != nil {
			return -1
		}
		wire = giop.MarshalReply(buf[:0], giop.BigEndian, &giop.Reply{RequestID: req.RequestID, Payload: req.Payload})
		if err := giop.DecodeReply(giop.BigEndian, wire[giop.HeaderSize:], &rep); err != nil {
			return -1
		}
		if len(rep.Payload) != len(payload) {
			return -1
		}
	}
	return float64(time.Since(start).Nanoseconds()) / probeMicroOps
}

// probePingPong times noise-free Fig. 6 round trips through SMMs, ports
// and scopes without the ORB, with persistent and with transient children.
func probePingPong() ([2]float64, error) {
	var out [2]float64
	for i, persistent := range []bool{true, false} {
		pp, err := experiments.NewPingPong(experiments.PingPongConfig{Synchronous: true, Persistent: persistent})
		if err != nil {
			return out, err
		}
		rt := make([]int64, 0, probeCalls)
		for n := 0; n < probeWarm+probeCalls; n++ {
			start := time.Now()
			v, err := pp.RoundTrip(int64(n))
			if err != nil {
				pp.Close()
				return out, err
			}
			if v != int64(n)+1 {
				pp.Close()
				return out, fmt.Errorf("pingpong: got %d for %d", v, n)
			}
			if n >= probeWarm {
				rt = append(rt, time.Since(start).Nanoseconds())
			}
		}
		pp.Close()
		out[i] = float64(quantile(rt, 0.5)) / 1e3
	}
	return out, nil
}

// probeExecInArea times the handoff crossing: executing in an ancestor
// scope from inside a child scope.
func probeExecInArea() (float64, error) {
	m := memory.NewModel(memory.Config{})
	outer := m.NewLTScoped("perfbench.outer", 1<<16)
	inner := m.NewLTScoped("perfbench.inner", 1<<16)
	ctx := m.NewContext()
	var ns float64
	noop := func(*memory.Context) error { return nil }
	err := ctx.Enter(outer, func(c *memory.Context) error {
		return c.Enter(inner, func(c *memory.Context) error {
			start := time.Now()
			for i := 0; i < probeMicroOps; i++ {
				if err := c.ExecuteInArea(outer, noop); err != nil {
					return err
				}
			}
			ns = float64(time.Since(start).Nanoseconds()) / probeMicroOps
			return nil
		})
	})
	return ns, err
}

// probePoolHandoff times Pool.Submit to the task starting on an idle
// worker.
func probePoolHandoff() float64 {
	p := sched.NewPool(sched.PoolConfig{Name: "perfbench.probe", Min: 1, Max: 1})
	defer p.Shutdown()
	ran := make(chan int64, 1)
	clk := &clock{base: time.Now()}
	lat := make([]int64, 0, probeCalls)
	for i := 0; i < probeWarm+probeCalls; i++ {
		start := clk.now()
		if err := p.Submit(sched.NormPriority, func(sched.Priority) { ran <- clk.now() }); err != nil {
			return -1
		}
		at := <-ran
		if i >= probeWarm {
			lat = append(lat, at-start)
		}
	}
	return float64(quantile(lat, 0.5))
}

// surgeMix draws the surge's tier/priority mix: one tier-0 call per
// twelve best-effort ones.
func surgeMix(rng *rand.Rand) int {
	if rng.IntN(surgeTier0Rate+surgeBERate) < surgeTier0Rate {
		return 0
	}
	return 1
}

// probeFairQueue times one FairQueue push plus pop under the surge's
// tier/priority mix, at the depth of a default RequestProcessing buffer.
func probeFairQueue(seed uint64) float64 {
	const depth = 2 * orb.DefaultConcurrency
	rng := rand.New(rand.NewPCG(seed, 0xfa1e))
	q := sched.NewFairQueue([]int32{16, 1})
	for i := 0; i < depth; i++ {
		t := surgeMix(rng)
		q.Push(uint32(i), uint8(t), surgeTenants[t].prio, 0)
	}
	mix := make([]uint8, 4096)
	for i := range mix {
		mix[i] = uint8(surgeMix(rng))
	}
	start := time.Now()
	for i := 0; i < probeMicroOps; i++ {
		h, ok := q.Pop()
		if !ok {
			return -1
		}
		t := mix[i%len(mix)]
		q.Push(h, t, surgeTenants[t].prio, 0)
	}
	return float64(time.Since(start).Nanoseconds()) / probeMicroOps
}

// probeAdmitDone times one Controller Admit plus Done under the surge's
// tenant mix.
func probeAdmitDone(seed uint64) float64 {
	ctrl := overload.NewController(overload.Config{})
	defer ctrl.Close()
	rng := rand.New(rand.NewPCG(seed, 0xad17))
	mix := make([]uint8, 4096)
	for i := range mix {
		mix[i] = uint8(surgeMix(rng))
	}
	start := time.Now()
	for i := 0; i < probeMicroOps; i++ {
		t := surgeTenants[mix[i%len(mix)]]
		if d := ctrl.Admit(t.tenant.ID, t.tenant.Tier, t.prio); d.OK {
			ctrl.Done(int64(surgeHold))
		}
	}
	return float64(time.Since(start).Nanoseconds()) / probeMicroOps
}
