package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
)

// reusableHarness builds a parent with one Reusable pooled child ("Worker")
// whose In port records, per message, the instance pointer and area that
// served it. Setup and start invocations are counted so the tests can pin
// the revival contract: Setup once per shell, start once per instantiation.
type reusableHarness struct {
	parent *Component

	mu       sync.Mutex
	setups   int
	starts   int
	shells   []*Component
	areaName []string
	served   chan int64
	// gate, when set, holds the handler after it has recorded the serving
	// instance until the channel is closed.
	gate chan struct{}
}

func newReusableHarness(t *testing.T, app *App) *reusableHarness {
	t.Helper()
	h := &reusableHarness{served: make(chan int64, 16)}
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		return c.DefineChild(ChildDef{
			Name:     "Worker",
			UsePool:  true,
			Reusable: true,
			Setup: func(w *Component) error {
				h.mu.Lock()
				h.setups++
				h.mu.Unlock()
				w.SetStart(func(*Proc) error {
					h.mu.Lock()
					h.starts++
					h.mu.Unlock()
					return nil
				})
				_, err := AddInPort(w, smm, InPortConfig{
					Name: "in", Type: intType,
					BufferSize: 32, Overflow: OverflowBlock,
					Handler: HandlerFunc(func(p *Proc, m Message) error {
						h.mu.Lock()
						h.shells = append(h.shells, p.Component())
						h.areaName = append(h.areaName, p.Component().Area().Name())
						gate := h.gate
						h.mu.Unlock()
						h.served <- m.(*intMsg).value
						if gate != nil {
							<-gate
						}
						return nil
					}),
				})
				return err
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AddOutPort(parent, parent.SMM(), OutPortConfig{
		Name: "drive", Type: intType, Dests: []string{"Worker.in"},
	}); err != nil {
		t.Fatal(err)
	}
	h.parent = parent
	return h
}

func (h *reusableHarness) sendErr(v int64) error {
	out, err := h.parent.SMM().GetOutPort("drive")
	if err != nil {
		return err
	}
	// The message pool is bounded; under the storm test many senders hold
	// messages at once, so back off briefly when it runs dry.
	var m Message
	for {
		m, err = out.GetMessage()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPoolEmpty) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	m.(*intMsg).value = v
	return out.Send(m, sched.NormPriority)
}

func (h *reusableHarness) send(t *testing.T, v int64) {
	t.Helper()
	if err := h.sendErr(v); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// dormantShell returns the SMM's table entry for name when it is a dormant
// (disposed) Reusable shell, or nil.
func dormantShell(smm *SMM, name string) *Component {
	smm.mu.Lock()
	defer smm.mu.Unlock()
	if c := smm.children[name]; c != nil && c.Disposed() {
		return c
	}
	return nil
}

// waitDormant blocks until the named Reusable child is a dormant shell in
// the SMM's table and every area of the scope pool is back — the old
// incarnation's teardown has finished — so the next send is a revival
// drawing an area the pool already has.
func waitDormant(t *testing.T, smm *SMM, name string, pool *memory.ScopePool) {
	t.Helper()
	waitFor(t, name+" dormant with its area released", func() bool {
		created, _, free := pool.Stats()
		return dormantShell(smm, name) != nil && int64(free) == created
	})
}

// TestReusableChildRevivesShell drives several dispose/revive cycles through
// a Reusable child and pins the contract: the identical shell serves every
// message, Setup ran exactly once, the start function ran once per
// instantiation, and the scoped area still cycles through the pool.
func TestReusableChildRevivesShell(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 2}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	for i := int64(0); i < rounds; i++ {
		h.send(t, i)
		if v := waitRecv(t, h.served); v != i {
			t.Fatalf("round %d: served %d", i, v)
		}
		// Each round must fully quiesce so the next send is a revival, not a
		// delivery into the still-live instance.
		waitDormant(t, h.parent.SMM(), "Worker", app.ScopePool(1))
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.setups != 1 {
		t.Errorf("Setup ran %d times, want 1", h.setups)
	}
	if h.starts != rounds {
		t.Errorf("start ran %d times, want %d", h.starts, rounds)
	}
	if len(h.shells) != rounds {
		t.Fatalf("served %d messages, want %d", len(h.shells), rounds)
	}
	for i, c := range h.shells {
		if c != h.shells[0] {
			t.Errorf("message %d served by a different shell", i)
		}
	}
	// The memory semantics are untouched: every instantiation went through
	// the pool (pre-created areas only, heavy reuse).
	created, reused, _ := app.ScopePool(1).Stats()
	if created != 2 {
		t.Errorf("pool created = %d, want 2", created)
	}
	if reused < rounds-2 {
		t.Errorf("pool reused = %d, want >= %d", reused, rounds-2)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestReusableChildConcurrentStorm hammers a Reusable child from many
// goroutines so revivals race deliveries through the stale-but-valid port
// binding; every message must be served exactly once with no errors.
func TestReusableChildConcurrentStorm(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 4}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}

	const senders, perSender = 8, 50
	h.served = make(chan int64, senders*perSender)
	errCh := make(chan error, senders)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := h.sendErr(int64(g*perSender + i)); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	got := make(map[int64]bool, senders*perSender)
	for i := 0; i < senders*perSender; i++ {
		got[waitRecv(t, h.served)] = true
	}
	if len(got) != senders*perSender {
		t.Errorf("served %d distinct values, want %d", len(got), senders*perSender)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestReusableLateStashDoesNotRevive sends while a Reusable shell is still
// tearing down. Its quiescence has been committed — the shell sits dormant
// in the SMM's table — but the teardown of its old incarnation is held
// back (the test holds the old incarnation's own SMM lock). The send must
// revive that same shell in place rather than build a second instance:
// the message is served, Setup ran once per from-scratch build (once), and
// once the old teardown finishes the ports are bound to the table's
// instance and every scoped area is back in the pool.
func TestReusableLateStashDoesNotRevive(t *testing.T) {
	app := newTestApp(t, AppConfig{
		ScopePools: []ScopePoolSpec{{Level: 1, AreaSize: 1 << 14, Count: 2}},
	})
	h := newReusableHarness(t, app)
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := h.parent.SMM()
	pool := app.ScopePool(1)

	// A serves message 1 and is held inside the handler.
	gate := make(chan struct{})
	h.mu.Lock()
	h.gate = gate
	h.mu.Unlock()
	h.send(t, 1)
	waitRecv(t, h.served)
	h.mu.Lock()
	a := h.shells[0]
	h.gate = nil
	h.mu.Unlock()

	// The start function gave A its own SMM; holding that SMM's lock stalls
	// A's teardown once its quiescence has been committed.
	own := a.currentSMM()
	if own == nil {
		t.Fatal("worker has no SMM of its own")
	}
	own.mu.Lock()
	held := true
	defer func() {
		if held {
			own.mu.Unlock()
		}
	}()
	close(gate)
	waitFor(t, "A dormant in the table", func() bool { return dormantShell(smm, "Worker") == a })

	done := make(chan error, 1)
	go func() { done <- h.sendErr(2) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send wedged behind a shell still tearing down")
	}
	if v := waitRecv(t, h.served); v != 2 {
		t.Fatalf("served %d, want 2", v)
	}
	h.mu.Lock()
	if h.shells[1] != a {
		t.Error("message 2 was served by a new instance, not the revived shell")
	}
	if h.setups != 1 {
		t.Errorf("Setup ran %d times, want 1 (one from-scratch build)", h.setups)
	}
	h.mu.Unlock()

	held = false
	own.mu.Unlock()
	waitDormant(t, smm, "Worker", pool)

	// The ports name the table's instance, and it serves the next message.
	in, err := smm.GetInPort("Worker.in")
	if err != nil {
		t.Fatal(err)
	}
	if owner, _ := in.binding(); owner != dormantShell(smm, "Worker") {
		t.Error("Worker.in is not bound to the table's instance")
	}
	h.send(t, 3)
	if v := waitRecv(t, h.served); v != 3 {
		t.Fatalf("served %d, want 3", v)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.shells[2] != a || h.setups != 1 {
		t.Errorf("message 3: revived shell %v, setups %d; want the same shell and 1", h.shells[2] == a, h.setups)
	}
	if n, err := app.Errors(); n != 0 {
		t.Errorf("handler errors: %d (%v)", n, err)
	}
}

// TestChildTableNeverHoldsDisposedLive pins the child-table invariant: the
// SMM never hands out, and never keeps in its table as live, an instance
// whose disposed flag is set. The test holds the SMM's lock while the last
// Connect handle is released from another goroutine: quiescence must not
// be able to flip the instance to disposed behind the table's back, so
// while the lock is held the table entry is still live.
func TestChildTableNeverHoldsDisposedLive(t *testing.T) {
	app := newTestApp(t, AppConfig{})
	parent, err := app.NewImmortalComponent("P", func(c *Component) error {
		smm := c.SMM()
		return c.DefineChild(ChildDef{
			Name: "C", MemorySize: 1 << 14,
			Setup: func(w *Component) error {
				_, err := AddInPort(w, smm, InPortConfig{
					Name: "in", Type: intType,
					Handler: HandlerFunc(func(*Proc, Message) error { return nil }),
				})
				return err
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Start(); err != nil {
		t.Fatal(err)
	}
	smm := parent.SMM()

	h, err := smm.Connect("C")
	if err != nil {
		t.Fatal(err)
	}
	c := h.Component()

	smm.mu.Lock()
	released := make(chan struct{})
	go func() {
		h.Disconnect()
		close(released)
	}()
	// Give the disconnect every chance to run its quiescence.
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		c.liveMu.Lock()
		disposed := c.disposed
		c.liveMu.Unlock()
		if disposed {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	live := smm.children["C"]
	liveDisposed := live != nil && live.Disposed()
	smm.mu.Unlock()
	<-released
	if liveDisposed {
		t.Fatal("the child table holds a disposed instance as live")
	}
	waitFor(t, "C reclaimed", func() bool { return smm.Child("C") == nil && c.Disposed() })

	// Connects racing disconnects: every instance handed out is reserved
	// and live, and no connect fails.
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h, err := smm.Connect("C")
				if err != nil {
					errCh <- err
					return
				}
				if h.Component().Disposed() {
					errCh <- errors.New("connect handed out a disposed instance")
					return
				}
				h.Disconnect()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
