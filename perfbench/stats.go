package main

import (
	"bufio"
	"math"
	"math/bits"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over fewer than 1,000 samples would rest on a handful
// of values, so the rule falls back to the highest percentile that still
// has this many behind it.
const tailMinBeyond = 10

// tailIndex returns the 0-based index into n sorted samples of the
// nearest-rank q-quantile, lowered if needed so that at least
// tailMinBeyond samples lie beyond it. It returns -1 for n == 0.
func tailIndex(n int, q float64) int {
	if n == 0 {
		return -1
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if limit := n - 1 - tailMinBeyond; k > limit {
		k = limit
	}
	if k < 0 {
		k = 0
	}
	return k
}

// quantile sorts xs in place and returns its nearest-rank q-quantile under
// the tail rule, or 0 for an empty slice.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[tailIndex(len(xs), q)]
}

// hist is a log-linear histogram of non-negative nanosecond values: exact
// below 256 ns, then 128 buckets per octave, so a quantile read from it is
// within one bucket, under 0.8%, of the sample it stands for. Its size is fixed, so the
// benchmark's own memory does not grow with the number of calls it
// records, and the peak resident size it reports is the system's.
type hist struct {
	counts [histBuckets]int64
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values are clamped below 2^40 ns, about 18 minutes
	histBuckets = (histMaxBits-histSubBits)*histSub + 2*histSub
)

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift*histSub + int(v>>shift)
}

// histBucket returns the lowest value bucket i holds and its width.
func histBucket(i int) (low, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := i/histSub - 1
	return int64(i-shift*histSub) << shift, 1 << shift
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

// quantile returns the nearest-rank q-quantile under the tail rule, or 0
// for an empty histogram. Within the bucket that holds it, the value is
// placed by its rank among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	k := int64(tailIndex(int(h.n), q))
	if k < 0 {
		return 0
	}
	var seen int64
	for i, c := range h.counts {
		if seen+c > k {
			low, width := histBucket(i)
			return float64(low) + float64(width)*(float64(k-seen)+0.5)/float64(c)
		}
		seen += c
	}
	return 0
}

// arrivals is one tenant's seeded open-loop schedule: due times, in
// nanoseconds from the start of the schedule, of a Poisson process.
type arrivals struct {
	rng  *rand.Rand
	mean float64 // mean inter-arrival gap, ns
	next int64
}

// newArrivals seeds a Poisson schedule of rate calls per second. The
// stream id keeps tenants that share a seed independent.
func newArrivals(seed, stream uint64, rate float64) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewPCG(seed, stream)), mean: float64(time.Second) / rate}
	a.next = a.gap()
	return a
}

func (a *arrivals) gap() int64 { return int64(a.rng.ExpFloat64() * a.mean) }

// peek returns the next due time without consuming it.
func (a *arrivals) peek() int64 { return a.next }

// pop consumes and returns the next due time.
func (a *arrivals) pop() int64 {
	due := a.next
	a.next += a.gap()
	return due
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or 0
// when /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// median sorts xs in place and returns its median, or 0 when it is empty.
func median(xs []int64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return float64(xs[n/2])
	}
	return float64(xs[n/2-1]+xs[n/2]) / 2
}
