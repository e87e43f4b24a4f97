package main

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/corba"
	"repro/internal/orb"
)

// failKind sorts a failed call by cause.
type failKind int

const (
	// failQuiescing: the SMM gave up delivering to a child that kept
	// quiescing (the multi-core wedge).
	failQuiescing failKind = iota
	// failClosed: the connection or endpoint closed under the call.
	failClosed
	// failShed: the server's overload control refused the call with a shed
	// reply.
	failShed
	// failDeadline: the call did not finish within the run's grace period
	// after the window closed, or the ORB reported a deadline.
	failDeadline
	// failOther: anything else, including a reply that does not match its
	// request.
	failOther
	numFailKinds
)

var failNames = [numFailKinds]string{"quiescing", "endpoint_closed", "shed", "deadline", "other"}

// classify maps an invocation error to its failKind.
func classify(err error) failKind {
	var shed *orb.ShedError
	switch {
	case errors.As(err, &shed):
		return failShed
	case strings.Contains(err.Error(), "kept quiescing"):
		return failQuiescing
	case errors.Is(err, corba.ErrClosed):
		return failClosed
	case errors.Is(err, orb.ErrDeadlineExceeded):
		return failDeadline
	default:
		return failOther
	}
}

// clock is the run's monotonic time base: every timestamp in a run is
// nanoseconds since it.
type clock struct{ base time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// ledger accounts the calls of one tenant. Calls begin and end under its
// lock. Until the window opens, calls are warm-up: checked, not counted.
// Opening the window adopts the warm-up calls still outstanding, so a
// wedge that strikes during warm-up counts against the run. Once frozen
// the ledger ignores late completions, so a call that hangs past the
// grace period stays counted as outstanding.
type ledger struct {
	mu          sync.Mutex
	open        bool
	frozen      bool
	warm        int64 // warm-up calls outstanding
	warmBad     int64 // warm-up replies that did not echo their request
	warmDone    int64 // warm-up calls completed
	attempted   int64
	ok          int64
	mismatched  int64
	outstanding int64
	fails       [numFailKinds]int64
	t0          int64   // window start
	lat         hist    // ns, correct counted calls
	perSec      []int64 // correct calls completed in each second of the window
	done        []int64 // completion times of correct calls, when kept
	keepDone    bool
	// firstErr keeps the first error of each kind for the run's notes.
	firstErr [numFailKinds]error
}

// begin registers a call. It reports whether the call counts (the window
// is open) and false for ok once the ledger is frozen.
func (l *ledger) begin() (counted, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.frozen:
		return false, false
	case !l.open:
		l.warm++
		return false, true
	}
	l.attempted++
	l.outstanding++
	return true, true
}

// openWindow starts counting at t0, adopting the outstanding warm-up
// calls.
func (l *ledger) openWindow(t0 int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open = true
	l.t0 = t0
	l.attempted += l.warm
	l.outstanding += l.warm
	l.warm = 0
}

// end settles a call begun with begin: a nil err with a reply equal to the
// request is correct; anything else is a failure of its kind.
func (l *ledger) end(counted bool, start, done int64, req, reply []byte, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return
	}
	if !counted && !l.open {
		l.warm--
		l.warmDone++
		if err == nil && !bytes.Equal(reply, req) {
			l.warmBad++
		}
		return
	}
	l.outstanding--
	switch {
	case err != nil:
		k := classify(err)
		l.fails[k]++
		if l.firstErr[k] == nil {
			l.firstErr[k] = err
		}
	case !bytes.Equal(reply, req):
		l.mismatched++
		l.fails[failOther]++
	default:
		l.ok++
		l.lat.record(done - start)
		if i := int((done - l.t0) / int64(time.Second)); i >= 0 {
			for len(l.perSec) <= i {
				l.perSec = append(l.perSec, 0)
			}
			l.perSec[i]++
		}
		if l.keepDone {
			l.done = append(l.done, done)
		}
	}
}

// tally is a frozen ledger's totals.
type tally struct {
	attempted, ok, mismatched, warmDone int64
	fails                               [numFailKinds]int64
	lat                                 *hist // nil in a merged tally
	perSec                              []int64
	done                                []int64
	firstErr                            [numFailKinds]error
}

func (t *tally) failed() int64 {
	var n int64
	for _, f := range t.fails {
		n += f
	}
	return n
}

// freeze stops the ledger and returns its totals; calls still outstanding
// count as deadline failures.
func (l *ledger) freeze() tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.frozen = true
	t := tally{attempted: l.attempted, ok: l.ok, mismatched: l.mismatched + l.warmBad, warmDone: l.warmDone, fails: l.fails,
		lat: &l.lat, perSec: slices.Clone(l.perSec), done: l.done, firstErr: l.firstErr}
	t.fails[failDeadline] += l.outstanding
	return t
}

// merge adds u into t.
func (t *tally) merge(u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.mismatched += u.mismatched
	t.warmDone += u.warmDone
	for i := range t.fails {
		t.fails[i] += u.fails[i]
	}
	t.done = append(t.done, u.done...)
	for i, n := range u.perSec {
		if i >= len(t.perSec) {
			t.perSec = append(t.perSec, 0)
		}
		t.perSec[i] += n
	}
	for i, err := range u.firstErr {
		if t.firstErr[i] == nil {
			t.firstErr[i] = err
		}
	}
}
