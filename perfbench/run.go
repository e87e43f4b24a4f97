package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corba"
	"repro/internal/giop"
	"repro/internal/orb"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

const (
	// warmup runs the workload untimed first, so pools, scope shells and
	// the overload limiter are built and settled before the window opens.
	warmup = time.Second
	// grace is how long calls issued inside the window may take to finish
	// after it closes; later ones count as failed.
	grace = 2 * time.Second
	// setupReps builds the system this many times per run; setup_s is the
	// median, and the last build serves the workload.
	setupReps = 31
	// payloadTemplates is the number of distinct seeded requests.
	payloadTemplates = 1024
	// spanCapacity bounds the spans one traced run keeps in memory.
	spanCapacity = 1 << 18
	// sampleEvery is the traced run's gauge sampling period.
	sampleEvery = time.Millisecond
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's report.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// runState is the state shared by a run's callers and its coordinator.
type runState struct {
	seed    uint64
	clk     clock
	stop    atomic.Bool
	pl      *payloadSet
	spans   *spanLog // nil in untraced runs
	ledgers []*ledger
	// late is the open-loop generator's lateness per in-window arrival,
	// owned by the generator until it closes genDone.
	late    []int64
	genDone chan struct{}
	wg      sync.WaitGroup
}

// counters is a snapshot of the program's own counters, taken at the
// window's edges.
type counters struct {
	frames, flushes, copies, reorders, enters, brownouts int64
	frame                                                giop.FrameStats
	conn                                                 connTotals
	alloc                                                uint64
	gcs                                                  uint32
	scopeCreated, scopeReused                            int64
}

func readCounters(r *rig, tn *tracedNet) counters {
	c := counters{
		frames:    telemetry.NewCounter("coalesce_frames_total").Value(),
		flushes:   telemetry.NewCounter("coalesce_flush_total").Value(),
		copies:    telemetry.NewCounter("payload_copy_total").Value(),
		reorders:  telemetry.NewCounter("mux_reorder_total").Value(),
		enters:    telemetry.NewCounter("scope_enter_total").Value(),
		brownouts: telemetry.NewCounter("brownout_transition_total").Value(),
		frame:     giop.ReadFrameStats(),
		conn:      tn.stats.snapshot(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, ms.NumGC
	for _, p := range scopePools(r) {
		created, reused, _ := p.Stats()
		c.scopeCreated += created
		c.scopeReused += reused
	}
	return c
}

func collocatedCalls() int64 { return telemetry.NewCounter("collocated_invoke_total").Value() }

// execute runs one workload and reports its metrics: the end-to-end set
// untraced, the per-layer set traced.
func execute(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(w.gomaxprocs())
	collocatedStart := collocatedCalls()

	st := &runState{seed: o.seed, clk: clock{base: time.Now()}}
	st.pl = newPayloadSet(o.seed, payloadTemplates, w.minSize, w.maxSize)
	var tn *tracedNet
	var servant corba.Servant = corba.EchoServant{}
	if w.callers == 0 {
		servant = holdServant{d: surgeHold}
	}
	if o.trace {
		st.spans = newSpanLog(&st.clk, spanCapacity)
		servant = tracedServant{inner: servant, log: st.spans, kind: spanServant}
	}

	// Set up several times; setup_s is the median build-to-first-reply.
	var setups []int64
	var r *rig
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			// Collect the discarded system, so the peak resident size is
			// that of the one that serves the run.
			runtime.GC()
		}
		var net transport.Network = transport.TCP{}
		if !w.tcp {
			net = transport.NewInproc()
		}
		if o.trace {
			tn = &tracedNet{inner: net, log: st.spans}
			net = tn
		}
		t := time.Now()
		r, err = w.build(net, servant, st.pl)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t).Nanoseconds())
	}

	tenants := 1
	if w.callers == 0 {
		tenants = len(surgeTenants)
	}
	for i := 0; i < tenants; i++ {
		st.ledgers = append(st.ledgers, &ledger{keepDone: o.trace})
	}
	if w.callers > 0 {
		for c := 0; c < w.callers; c++ {
			st.wg.Add(1)
			go st.closedCaller(r.clients[0], c, w.callers)
		}
	} else {
		st.wg.Add(1)
		st.genDone = make(chan struct{})
		go st.openLoop(r)
	}

	var smp *sampler
	var c0, c1 counters
	time.Sleep(warmup)
	if o.trace {
		c0 = readCounters(r, tn)
		smp = startSampler(r, &st.stop)
		st.spans.on.Store(true)
	}
	cpu0 := cpuTime()
	t0 := st.clk.now()
	for _, l := range st.ledgers {
		l.openWindow(t0)
	}
	time.Sleep(time.Duration(o.seconds) * time.Second)
	t1 := st.clk.now()
	cpu1 := cpuTime()
	st.stop.Store(true)
	if o.trace {
		st.spans.on.Store(false)
		c1 = readCounters(r, tn)
	}
	finished := waitTimeout(&st.wg, grace)
	if st.genDone != nil {
		// The generator itself never blocks on a call, so it has stopped,
		// or is about to, even when calls it sent are wedged.
		<-st.genDone
	}

	var all tally
	tallies := make([]tally, len(st.ledgers))
	for i, l := range st.ledgers {
		tallies[i] = l.freeze()
		all.merge(tallies[i])
	}
	if smp != nil {
		smp.wait()
	}

	res := &result{attempted: all.attempted}
	surge := w.callers == 0
	shed := all.fails[failShed]
	res.failed = all.failed()
	if surge {
		// A shed reply is overload control answering as designed: it counts
		// against ok_frac but is not a failed operation.
		res.failed -= shed
	}
	res.correct = all.mismatched == 0 && collocatedCalls() == collocatedStart
	if surge && all.fails[failOther] > 0 {
		// Every refusal in the surge must arrive as a shed reply.
		res.correct = false
	}
	if all.mismatched > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d replies did not echo their request", all.mismatched))
	}
	if collocatedCalls() != collocatedStart {
		res.notes = append(res.notes, "calls took the collocated path")
	}
	if !finished {
		res.notes = append(res.notes, "calls still outstanding after the grace period")
	}
	res.notes = append(res.notes, fmt.Sprintf("%d warm-up calls completed, %d calls counted", all.warmDone, all.attempted))
	res.notes = append(res.notes, fmt.Sprintf("failures: quiescing=%d endpoint_closed=%d shed=%d deadline=%d other=%d",
		all.fails[failQuiescing], all.fails[failClosed], all.fails[failShed], all.fails[failDeadline], all.fails[failOther]))
	for k, err := range all.firstErr {
		if err != nil {
			res.notes = append(res.notes, fmt.Sprintf("first %s error: %v", failNames[k], err))
		}
	}

	ok := all.ok
	// A call is answered when a reply came back over the wire: a correct
	// echo, or in the surge a shed reply.
	answered := ok + all.fails[failShed]
	if !o.trace {
		lat := tallies[0].lat // tier 0 in the surge
		res.notes = append(res.notes, fmt.Sprintf("%d latency samples, p99 %.1f us", lat.n, lat.quantile(0.99)/1e3))
		res.add("rt_p50_us", lat.quantile(0.50)/1e3, "us")
		res.add("ops_per_s", medianRate(all.perSec, t1-t0), "1/s")
		res.add("ok_frac", frac(ok, all.attempted), "frac")
		res.add("cpu_us_per_op", perOp(float64(cpu1-cpu0)/1e3, answered), "us")
		res.add("setup_s", median(setups)/1e9, "s")
		res.add("rss_peak_mb", peakRSSMB(), "MB")
		return res, nil
	}

	layerFromRun(res, st, r, tallies, all, answered, diffCounters(c1, c0), smp, t0, t1)
	probeLayers(res, st.pl, o.seed)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.txt", w.name, o.seed))
	if err := st.spans.writeFile(path); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d kept, %d dropped, written to %s",
		len(st.spans.recorded()), st.spans.dropped.Load(), path))
	return res, nil
}

// medianRate is the median over the window's whole seconds of the correct
// calls completed in each: a host stall that spoils one second moves it by
// at most one rank.
func medianRate(perSec []int64, window int64) float64 {
	vs := make([]int64, window/int64(time.Second))
	copy(vs, perSec)
	return median(vs)
}

func frac(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

func perOp(v float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// closedCaller is one closed-loop caller: it sends its next request only
// after the previous reply, until the window closes.
func (st *runState) closedCaller(cl *orb.Client, caller, callers int) {
	defer st.wg.Done()
	led := st.ledgers[0]
	// Connection spans carry the call id only when one call is on the
	// wire at a time.
	lone := callers == 1
	buf := make([]byte, st.pl.maxSize)
	for seq := uint64(0); !st.stop.Load(); seq++ {
		id := uint64(caller+1)<<40 | seq
		req := st.pl.fill(buf, caller*7919+int(seq), id)
		if st.spans != nil && lone {
			st.spans.current.Store(id)
		}
		counted, ok := led.begin()
		if !ok {
			return
		}
		start := st.clk.now()
		reply, err := cl.Invoke("echo", "echo", req, sched.NormPriority)
		done := st.clk.now()
		if st.spans != nil && st.spans.on.Load() {
			st.spans.add(span{call: id, start: start, end: done, kind: spanInvoke})
		}
		led.end(counted, start, done, req, reply, err)
	}
}

// openLoop sends each tenant's calls on its seeded Poisson schedule, each
// on its own goroutine, whether or not earlier calls have returned. Each
// call is timed from when it was due.
func (st *runState) openLoop(r *rig) {
	defer st.wg.Done()
	defer close(st.genDone)
	scheds := make([]*arrivals, len(surgeTenants))
	for i, t := range surgeTenants {
		scheds[i] = newArrivals(st.seed, uint64(i+1), t.rate)
	}
	gates := make([]chan struct{}, len(surgeTenants))
	for i := range gates {
		gates[i] = make(chan struct{}, surgeGate)
	}
	var outstanding atomic.Int64
	var seq uint64
	sleep := func(d time.Duration) { time.Sleep(d) }
	dispatch(scheds, st.clk.now(), st.clk.now, sleep, st.stop.Load, func(ti int, due, now int64) bool {
		seq++
		led := st.ledgers[ti]
		counted, ok := led.begin()
		if !ok {
			return false
		}
		if counted {
			st.late = append(st.late, now-due)
		}
		if outstanding.Load() >= surgeMaxOutstanding {
			led.end(counted, due, now, nil, nil, fmt.Errorf("open loop: %d calls outstanding", surgeMaxOutstanding))
			return true
		}
		outstanding.Add(1)
		st.wg.Add(1)
		go func(id uint64) {
			defer st.wg.Done()
			defer outstanding.Add(-1)
			st.gatedCall(r.clients[ti], gates[ti], surgeTenants[ti].prio, led, counted, due, id)
		}(uint64(ti+1)<<40 | seq)
		return true
	})
}

// gatedCall makes open-loop call id, due at due, once its tenant's gate
// has room, so no more calls are inside the client than its pipeline
// takes. The call is timed from due, the wait at the gate included.
func (st *runState) gatedCall(cl *orb.Client, gate chan struct{}, prio sched.Priority, led *ledger, counted bool, due int64, id uint64) {
	buf := make([]byte, st.pl.maxSize)
	req := st.pl.fill(buf, int(id), id)
	gate <- struct{}{}
	reply, err := cl.Invoke("echo", "echo", req, prio)
	<-gate
	done := st.clk.now()
	if st.spans != nil && st.spans.on.Load() {
		st.spans.add(span{call: id, start: due, end: done, kind: spanInvoke})
	}
	led.end(counted, due, done, req, reply, err)
}

// dispatch walks the merged schedules from origin, sleeping until each
// arrival is due and handing it to send with its due time and the time
// it was sent. Arrivals that fall due while the generator is held up are
// sent at once, late, still carrying their own due time. It returns when
// stopped reports true or send returns false.
func dispatch(scheds []*arrivals, origin int64, now func() int64, sleep func(time.Duration), stopped func() bool,
	send func(tenant int, due, now int64) bool) {
	for !stopped() {
		ti := 0
		for i := range scheds {
			if scheds[i].peek() < scheds[ti].peek() {
				ti = i
			}
		}
		due := origin + scheds[ti].peek()
		t := now()
		if wait := due - t; wait > 0 {
			sleep(time.Duration(wait))
			continue
		}
		scheds[ti].pop()
		if !send(ti, due, t) {
			return
		}
	}
}

// sampler polls the in-flight gauges, the overload limit and the
// goroutine count through the traced window.
type sampler struct {
	done                           chan struct{}
	n                              int64
	clientSum, serverSum, limitSum int64
	goroutinesPeak                 int
}

func startSampler(r *rig, stop *atomic.Bool) *sampler {
	s := &sampler{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for !stop.Load() {
			<-t.C
			s.n++
			for _, cl := range r.clients {
				s.clientSum += cl.Inflight()
			}
			s.serverSum += r.srv.Inflight()
			if r.ctrl != nil {
				s.limitSum += int64(r.ctrl.Limit())
			}
			if g := runtime.NumGoroutine(); g > s.goroutinesPeak {
				s.goroutinesPeak = g
			}
		}
	}()
	return s
}

func (s *sampler) wait() { <-s.done }

func (s *sampler) mean(sum int64) float64 { return frac(sum, s.n) }

// pathStats pairs each call's caller-side span with its servant span:
// request path is caller entry to servant entry, reply path servant
// return to caller return.
func pathStats(spans []span, outer, inner spanKind) (req, reply, rt []int64) {
	in := make(map[uint64]span)
	for _, s := range spans {
		if s.kind == inner && s.end != 0 {
			in[s.call] = s
		}
	}
	for _, s := range spans {
		if s.kind != outer || s.end == 0 {
			continue
		}
		rt = append(rt, s.end-s.start)
		if v, ok := in[s.call]; ok {
			req = append(req, v.start-s.start)
			reply = append(reply, s.end-v.end)
		}
	}
	return req, reply, rt
}

// stallMax is the longest interval of [t0, t1] with no completion.
func stallMax(done []int64, t0, t1 int64) int64 {
	slices.Sort(done)
	prev, gap := t0, int64(0)
	for _, d := range done {
		if d > t1 {
			break
		}
		if d-prev > gap {
			gap = d - prev
		}
		if d > prev {
			prev = d
		}
	}
	if t1-prev > gap {
		gap = t1 - prev
	}
	return gap
}

func diffCounters(a, b counters) counters {
	return counters{
		frames: a.frames - b.frames, flushes: a.flushes - b.flushes, copies: a.copies - b.copies,
		reorders: a.reorders - b.reorders, enters: a.enters - b.enters, brownouts: a.brownouts - b.brownouts,
		frame: giop.FrameStats{Acquired: a.frame.Acquired - b.frame.Acquired, Recycled: a.frame.Recycled - b.frame.Recycled,
			Detached: a.frame.Detached - b.frame.Detached},
		conn:         a.conn.sub(b.conn),
		alloc:        a.alloc - b.alloc,
		gcs:          a.gcs - b.gcs,
		scopeCreated: a.scopeCreated - b.scopeCreated,
		scopeReused:  a.scopeReused - b.scopeReused,
	}
}

// layerFromRun reports the per-layer metrics the traced workload itself
// yields. Per-op figures are per answered call.
func layerFromRun(res *result, st *runState, r *rig, tallies []tally, all tally, ok int64, d counters, smp *sampler, t0, t1 int64) {
	res.add("rt_p99_us", tallies[0].lat.quantile(0.99)/1e3, "us")
	spans := st.spans.recorded()
	req, reply, _ := pathStats(spans, spanInvoke, spanServant)
	res.add("orb.req_path_p50_us", float64(quantile(req, 0.5))/1e3, "us")
	res.add("orb.reply_path_p50_us", float64(quantile(reply, 0.5))/1e3, "us")
	framesPerFlush := 1.0 // uncoalesced: every frame is its own write
	if d.flushes > 0 {
		framesPerFlush = float64(d.frames) / float64(d.flushes)
	}
	res.add("orb.frames_per_flush", framesPerFlush, "frames")
	res.add("orb.payload_copies_per_op", perOp(float64(d.copies), ok), "count")
	res.add("giop.detaches_per_op", perOp(float64(d.frame.Detached), ok), "count")
	res.add("orb.mux_reorder_frac", perOp(float64(d.reorders), ok), "frac")
	res.add("orb.client_inflight_mean", smp.mean(smp.clientSum), "calls")
	res.add("orb.server_inflight_mean", smp.mean(smp.serverSum), "calls")
	res.add("giop.frame_recycle_frac", frac(d.frame.Recycled, d.frame.Acquired), "frac")
	res.add("transport.writes_per_op", perOp(float64(d.conn.writes), ok), "count")
	res.add("transport.write_us_per_op", perOp(float64(d.conn.writeNs)/1e3, ok), "us")
	res.add("transport.reads_per_op", perOp(float64(d.conn.reads), ok), "count")
	res.add("transport.bytes_per_op", perOp(float64(d.conn.bytes), ok), "B")
	res.add("core.port_queue_max", float64(portQueueMax(r)), "count")
	res.add("core.quiescing_failures", float64(all.fails[failQuiescing]), "count")
	res.add("memory.scope_reuse_frac", frac(d.scopeReused, d.scopeReused+d.scopeCreated), "frac")
	res.add("memory.scope_enters_per_op", perOp(float64(d.enters), ok), "count")
	res.add("overload.limit_mean", smp.mean(smp.limitSum), "calls")
	var t0Shed, beShed float64
	if len(tallies) == len(surgeTenants) {
		t0Shed = frac(tallies[0].fails[failShed], tallies[0].attempted)
		beShed = frac(tallies[1].fails[failShed], tallies[1].attempted)
	}
	res.add("overload.tier0_shed_frac", t0Shed, "frac")
	res.add("overload.be_shed_frac", beShed, "frac")
	res.add("overload.brownout_transitions", float64(d.brownouts), "count")
	res.add("runtime.alloc_b_per_op", perOp(float64(d.alloc), ok), "B")
	res.add("runtime.gc_per_kop", perOp(float64(d.gcs)*1000, ok), "count")
	res.add("runtime.goroutines_peak", float64(smp.goroutinesPeak), "count")
	res.add("gen.late_p99_us", float64(quantile(st.late, 0.99))/1e3, "us")
	res.add("gen.stall_max_s", float64(stallMax(all.done, t0, t1))/1e9, "s")
	res.add("gen.failed_frac", frac(all.failed(), all.attempted), "frac")
	res.add("gen.fail_endpoint_closed", float64(all.fails[failClosed]), "count")
	res.add("gen.fail_shed", float64(all.fails[failShed]), "count")
	res.add("gen.fail_deadline", float64(all.fails[failDeadline]), "count")
	res.add("gen.fail_other", float64(all.fails[failOther]), "count")
}
