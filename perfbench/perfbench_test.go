package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/orb"
	"repro/internal/transport"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, -1},
		{1, 0.5, 0},
		{5, 0.99, 0},
		{11, 0.99, 0},
		{12, 0.99, 1},
		{500, 0.99, 489},   // p99 would leave 5 beyond; falls back to p97.8
		{1000, 0.99, 989},  // exactly ten beyond
		{2000, 0.99, 1979}, // p99 proper, twenty beyond
		{1001, 0.50, 500},
	}
	for _, c := range cases {
		if got := tailIndex(c.n, c.q); got != c.want {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for n := 11; n < 5000; n += 7 {
		if k := tailIndex(n, 0.99); n-1-k < tailMinBeyond {
			t.Fatalf("n=%d: index %d leaves %d samples beyond", n, k, n-1-k)
		}
	}
}

func TestHistQuantileMatchesSortedSamples(t *testing.T) {
	var h hist
	var xs []int64
	for i := 0; i < 100000; i++ {
		v := int64(i*37%100003) * 113 // spread over 0..11 ms
		h.record(v)
		xs = append(xs, v)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := float64(xs[tailIndex(len(xs), q)])
		got := h.quantile(q)
		if math.Abs(got-exact) > exact/histSub+1 {
			t.Errorf("q=%v: hist %.0f, exact %.0f", q, got, exact)
		}
	}
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1023, 1024, 1 << 30, 1<<40 - 1} {
		low, width := histBucket(histIndex(v))
		if v < low || v >= low+width {
			t.Errorf("value %d lands in bucket [%d, %d)", v, low, low+width)
		}
	}
}

func TestArrivalsAreSeeded(t *testing.T) {
	draw := func(seed, stream uint64) []int64 {
		a := newArrivals(seed, stream, 1000)
		out := make([]int64, 1000)
		for i := range out {
			out[i] = a.pop()
		}
		return out
	}
	if !slices.Equal(draw(7, 1), draw(7, 1)) {
		t.Fatal("same seed gave different arrivals")
	}
	if slices.Equal(draw(7, 1), draw(8, 1)) || slices.Equal(draw(7, 1), draw(7, 2)) {
		t.Fatal("different seeds or streams gave the same arrivals")
	}
	a := newArrivals(3, 1, 1000)
	const n = 200000
	var last int64
	for i := 0; i < n; i++ {
		last = a.pop()
	}
	if mean := float64(last) / n; math.Abs(mean-1e6) > 0.02e6 {
		t.Fatalf("mean gap %.0f ns, want about 1e6 for 1000 calls/s", mean)
	}
}

// TestOpenLoopTimesFromDue stalls the generator's clock and checks that
// late arrivals keep their due times, and that the ledger then charges the
// stall to their latency.
func TestOpenLoopTimesFromDue(t *testing.T) {
	want := newArrivals(11, 1, 1000)
	scheds := []*arrivals{newArrivals(11, 1, 1000)}
	var clock int64
	const origin, stallAt, stall = 1000, 20e6, 40e6
	stalled := false
	now := func() int64 {
		if !stalled && clock >= stallAt {
			stalled = true
			clock += stall
		}
		return clock
	}
	sleep := func(d time.Duration) { clock += int64(d) }
	var led ledger
	led.openWindow(0)
	sent := 0
	var maxLate int64
	var fromDue []int64
	dispatch(scheds, origin, now, sleep, func() bool { return sent == 100 }, func(_ int, due, at int64) bool {
		if exp := origin + want.pop(); due != exp {
			t.Fatalf("arrival %d due %d, want %d", sent, due, exp)
		}
		if at < due {
			t.Fatalf("arrival %d sent at %d before due %d", sent, at, due)
		}
		maxLate = max(maxLate, at-due)
		counted, ok := led.begin()
		if !counted || !ok {
			t.Fatal("call not counted in an open window")
		}
		done := at + int64(time.Millisecond)
		led.end(counted, due, done, []byte("x"), []byte("x"), nil)
		fromDue = append(fromDue, done-due)
		sent++
		return true
	})
	if maxLate < stall/2 {
		t.Fatalf("the %v stall made no arrival late (max %d ns)", time.Duration(stall), maxLate)
	}
	tl := led.freeze()
	if tl.ok != 100 || tl.lat.n != 100 {
		t.Fatalf("ledger has %d ok, %d latencies; want 100", tl.ok, tl.lat.n)
	}
	slices.Sort(fromDue)
	for _, q := range []float64{0.5, 0.8} {
		exact := float64(fromDue[tailIndex(len(fromDue), q)])
		if got := tl.lat.quantile(q); math.Abs(got-exact) > exact/histSub+1 {
			t.Errorf("q=%v: ledger %.0f ns, latency from due %.0f ns", q, got, exact)
		}
	}
	if tl.lat.quantile(0.8) <= float64(time.Millisecond) {
		t.Error("latencies do not include the stall")
	}
}

func TestLedgerAdoptsWarmupCalls(t *testing.T) {
	var led ledger
	counted, ok := led.begin() // a warm-up call that never returns
	if counted || !ok {
		t.Fatal("warm-up call counted")
	}
	led.openWindow(0)
	counted, _ = led.begin()
	led.end(counted, 0, 10, []byte("a"), []byte("b"), nil) // wrong echo
	tl := led.freeze()
	if tl.attempted != 2 || tl.fails[failDeadline] != 1 || tl.mismatched != 1 || tl.ok != 0 {
		t.Fatalf("tally %+v: want 2 attempted, 1 outstanding, 1 mismatch", tl)
	}
}

// TestSurgeBurstReachesAdmission releases a burst of best-effort calls
// all at once, as after a host stall, and checks that each is answered by
// the server, with an echo or a shed reply, and none refused by the client.
func TestSurgeBurstReachesAdmission(t *testing.T) {
	w, err := lookupWorkload("surge")
	if err != nil {
		t.Fatal(err)
	}
	st := &runState{clk: clock{base: time.Now()}, pl: newPayloadSet(1, payloadTemplates, w.minSize, w.maxSize)}
	r, err := w.build(transport.NewInproc(), holdServant{d: surgeHold}, st.pl)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	const burst = 4 * orb.DefaultPipelineDepth
	var led ledger
	led.openWindow(0)
	gate := make(chan struct{}, surgeGate)
	be := len(surgeTenants) - 1
	for i := 0; i < burst; i++ {
		counted, _ := led.begin()
		st.wg.Add(1)
		go func(id uint64) {
			defer st.wg.Done()
			st.gatedCall(r.clients[be], gate, surgeTenants[be].prio, &led, counted, st.clk.now(), id)
		}(uint64(i))
	}
	if !waitTimeout(&st.wg, 30*time.Second) {
		t.Fatal("burst calls still outstanding after 30s")
	}
	tl := led.freeze()
	if tl.ok+tl.fails[failShed] != burst {
		t.Fatalf("%d echoed, failures %v (first: %v); want all %d echoed or shed", tl.ok, tl.fails, tl.firstErr, burst)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for one second, untraced, and two of them
// traced, and checks that each prints every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		trace    string
	}{
		{"lockstep", "0"}, {"pipelined", "0"}, {"pipelined_mc", "0"}, {"surge", "0"},
		{"lockstep", "1"}, {"surge", "1"},
	}
	for _, r := range runs {
		t.Run(r.workload+"/trace"+r.trace, func(t *testing.T) {
			cmd := exec.Command(bin, "--workload", r.workload, "--seed", "3", "--seconds", "1",
				"--trace", r.trace, "--out", dir)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var last []byte
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				last = append(last[:0], sc.Bytes()...)
			}
			var rep reportJSON
			if err := json.Unmarshal(last, &rep); err != nil {
				t.Fatalf("last line %q: %v", last, err)
			}
			if rep.Attempted < 1 {
				t.Errorf("attempted %d", rep.Attempted)
			}
			if r.workload != "pipelined_mc" && (!rep.Correct || rep.Failed != 0) {
				t.Errorf("correct=%v failed=%d", rep.Correct, rep.Failed)
			}
			want := spec.EndToEnd
			if r.trace == "1" {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing", m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
				}
			}
		})
	}
}
