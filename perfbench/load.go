package main

import (
	"errors"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rramft/internal/serve"
)

// backend is the submission surface the load generators drive. Both a
// single *serve.Engine and a *cluster.Dispatcher provide it, exactly as
// rramft-serve's stream plumbing uses them.
type backend interface {
	Submit(req *serve.Request) (<-chan serve.Response, error)
}

// clockBase anchors every timestamp the benchmark records: nanoseconds on
// the monotonic clock since process start.
var clockBase = time.Now()

func now() int64 { return time.Since(clockBase).Nanoseconds() }

// outcome classifies how one request ended. Every sent request ends as
// exactly one of ok, timeout, rejected or errored.
type outcome uint8

const (
	outPending outcome = iota
	outOK
	outTimeout
	outRejected
	outErrored
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, serve.ErrDeadlineExceeded):
		return outTimeout
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDraining):
		return outRejected
	default:
		return outErrored
	}
}

// sample is one request's record. Times are clockBase nanoseconds: due is
// when the schedule wanted it sent (the send time in a closed loop), sub0
// and sub1 bracket the Submit call, recv is when the client saw the
// response. engNs is the engine's own Response.LatencyNs.
type sample struct {
	due, sub0, sub1, recv int64
	engNs                 int64
	class                 int
	out                   outcome
}

func (s *sample) latency() int64 { return s.recv - s.due }

// A run's load alternates between the two phases: windowCount rounds of
// one open-loop window then one closed-loop window, so each phase samples
// the whole run rather than one end of it. Figures are taken per window
// and summarized over windows, so a host that slows down for a second or
// two moves a few windows, not the run. A window holds at least
// minPerWindow requests.
const (
	windowCount  = 40
	minPerWindow = 50
)

// window is one timed slice of load: its samples in request order, the
// global index of its first request, its wall interval and the process
// CPU time it took (load, engine and any maintenance running meanwhile).
type window struct {
	samples    []sample
	first      int
	start, end int64
	cpu        time.Duration
}

// counts tallies outcomes.
type counts struct{ sent, ok, timeouts, rejected, errored int }

func tally(ws []window) counts {
	var c counts
	for _, w := range ws {
		c.sent += len(w.samples)
		for i := range w.samples {
			switch w.samples[i].out {
			case outOK:
				c.ok++
			case outTimeout:
				c.timeouts++
			case outRejected:
				c.rejected++
			case outErrored:
				c.errored++
			}
		}
	}
	return c
}

// conserved reports whether every sent request ended exactly once:
// Sent == OK + Timeouts + Rejected + Errored.
func (c counts) conserved() bool { return c.sent == c.ok+c.timeouts+c.rejected+c.errored }

// inputFn supplies request i's feature vector.
type inputFn func(i int) []float64

// script is a window's scripted events. fire runs just before request i
// is sent, on the sending goroutine, and must not block; wait blocks until
// every event fired so far has run. A window ends only once its events
// have run, so none spills into the next window.
type script interface {
	fire(i int)
	wait()
}

// record stores the response r into s as the client sees it.
func record(s *sample, r serve.Response) {
	s.recv = now()
	s.out = classify(r.Err)
	s.class, s.engNs = r.Class, r.LatencyNs
}

// openLoop sends n requests from one generator goroutine at a fixed rate,
// request i due at start + i/rate whatever happened to earlier requests,
// and times each from its due time. A backend stall therefore delays every
// request due during it, and the generator's own lateness (sub0 − due)
// is charged to the request, not hidden. Each response is awaited on its
// own goroutine, as rramft-serve's stream plumbing does.
//
// The generator waits for each due time with the nanosleep system call,
// not time.Sleep: the runtime's timers round a sub-millisecond sleep up to
// about a millisecond, which sends requests in bursts and adds about half
// a millisecond to every latency at 8000 req/s. A blocking system call
// also hands the generator's processor to other goroutines while it
// waits, so pacing takes no CPU from the program; spinning instead
// lengthened every repair step it competed with.
func openLoop(b backend, n int, rate float64, in inputFn, sc script) window {
	w := window{samples: make([]sample, n)}
	var wg sync.WaitGroup
	period := float64(time.Second) / rate
	settle()
	cpu0 := cpuNow()
	w.start = now()
	for i := 0; i < n; i++ {
		s := &w.samples[i]
		s.due = w.start + int64(float64(i)*period)
		if d := s.due - now(); d > 0 {
			ts := syscall.NsecToTimespec(d)
			syscall.Nanosleep(&ts, nil) // an early return only sends early
		}
		if sc != nil {
			sc.fire(i)
		}
		if ch := submit(b, s, in(i)); ch != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				record(s, <-ch)
			}()
		}
	}
	wg.Wait()
	if sc != nil {
		sc.wait()
	}
	w.end, w.cpu = now(), cpuNow()-cpu0
	return w
}

// closedLoop keeps outstanding requests in flight until n have been sent:
// that many clients each send their next request as soon as the previous
// one is answered. Latency runs from the send.
func closedLoop(b backend, n, outstanding int, in inputFn, sc script) window {
	w := window{samples: make([]sample, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	settle()
	cpu0 := cpuNow()
	w.start = now()
	for c := 0; c < outstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if sc != nil {
					sc.fire(i)
				}
				s := &w.samples[i]
				s.due = now()
				if ch := submit(b, s, in(i)); ch != nil {
					record(s, <-ch)
				}
			}
		}()
	}
	wg.Wait()
	if sc != nil {
		sc.wait()
	}
	w.end, w.cpu = now(), cpuNow()-cpu0
	return w
}

// settle collects the garbage earlier windows left before a window
// starts, so that no window pays for the one before it: a closed-loop
// window allocates at several times the open-loop rate, and collecting
// its garbage inside the next open-loop window would put a GC pause into
// every one of their tails.
func settle() { runtime.GC() }

// submit sends one request and returns its response channel, or nil when
// Submit refused it (the refusal is recorded in s).
func submit(b backend, s *sample, x []float64) <-chan serve.Response {
	s.sub0 = now()
	ch, err := b.Submit(&serve.Request{X: x})
	s.sub1 = now()
	if err != nil {
		s.recv = s.sub1
		s.out = classify(err)
		return nil
	}
	return ch
}

// cpuPerOK is the window's CPU time per successful request, in µs.
func (w window) cpuPerOK() float64 {
	ok := 0
	for i := range w.samples {
		if w.samples[i].out == outOK {
			ok++
		}
	}
	if ok == 0 {
		return math.Inf(1)
	}
	return float64(w.cpu.Microseconds()) / float64(ok)
}

// latencyQuantiles returns the q-quantiles (in ms) of the successful
// requests' due-to-response latency.
func latencyQuantiles(ss []sample, qs ...float64) []float64 {
	lat := make([]int64, 0, len(ss))
	for i := range ss {
		if ss[i].out == outOK {
			lat = append(lat, ss[i].latency())
		}
	}
	out := make([]float64, len(qs))
	if len(lat) == 0 {
		return out
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	for j, q := range qs {
		out[j] = float64(lat[rank(len(lat), q)]) / 1e6
	}
	return out
}

// rank is the nearest-rank index of quantile q in n sorted values.
func rank(n int, q float64) int {
	i := int(q*float64(n)+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// goodput is the rate of requests answered OK within limitNs over the
// window's wall interval.
func (w window) goodput(limitNs int64) float64 {
	good := 0
	for i := range w.samples {
		if s := &w.samples[i]; s.out == outOK && s.latency() <= limitNs {
			good++
		}
	}
	if w.end <= w.start {
		return 0
	}
	return float64(good) / (float64(w.end-w.start) / 1e9)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
