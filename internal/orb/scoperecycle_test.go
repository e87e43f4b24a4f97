package orb

import (
	"sync"
	"testing"
	"time"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/transport"
)

// TestScopeRecyclingDefaultConfig pins the scope-pool contract on default
// configurations: with no ScopePoolCount set, the server's level-3
// RequestProcessing children and the client's level-2 MessageProcessing
// children still draw their areas from a growable pool, so pipelined
// traffic recycles a handful of areas instead of creating one per
// instantiation.
//
// The pool size is not pinned to the pre-created area: a send can
// instantiate the next child while the previous instance is still tearing
// down, and that overlap needs a second area. Between phases the test waits
// for the children to quiesce, so each phase's first call instantiates
// afresh and must draw a recycled area.
func TestScopeRecyclingDefaultConfig(t *testing.T) {
	net := transport.NewInproc()
	srv := startEchoServer(t, net, "", ServerConfig{})
	cl := dial(t, net, srv.Addr(), ClientConfig{})

	rp, mp := srv.App().ScopePool(3), cl.App().ScopePool(2)
	if rp == nil || mp == nil {
		t.Fatalf("default configs built no request scope pools: server %v, client %v", rp, mp)
	}

	const inflight = 16
	payload := make([]byte, 256)
	run := func(calls int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, inflight)
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := cl.Invoke("echo", "echo", payload, sched.NormPriority); err != nil {
						errs <- err
						return
					}
				}
			}(calls / inflight)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// Wait for both children to quiesce: every pooled area back home.
		for _, p := range []*memory.ScopePool{rp, mp} {
			deadline := time.Now().Add(5 * time.Second)
			for created, _, free := p.Stats(); int64(free) != created; created, _, free = p.Stats() {
				if time.Now().After(deadline) {
					t.Fatalf("pool %s: %d of %d areas still held after the calls returned", p.Name(), created-int64(free), created)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}

	run(800) // warm-up
	rpCreated, rpReused, _ := rp.Stats()
	mpCreated, mpReused, _ := mp.Stats()

	const calls = 2000
	run(calls)

	// One live instance plus the occasional one still tearing down.
	const maxAreas = 3
	for _, c := range []struct {
		name              string
		p                 *memory.ScopePool
		created0, reused0 int64
	}{
		{"server RequestProcessing", rp, rpCreated, rpReused},
		{"client MessageProcessing", mp, mpCreated, mpReused},
	} {
		created, reused, _ := c.p.Stats()
		if created > maxAreas {
			t.Errorf("%s pool grew to %d areas (%d after warm-up) over %d calls; want at most %d",
				c.name, created, c.created0, calls, maxAreas)
		}
		if reused == c.reused0 {
			t.Errorf("%s children instantiated %d calls without reusing a pooled area", c.name, calls)
		}
	}
}
