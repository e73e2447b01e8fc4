package main

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// verb is one request kind of the line protocol that the workloads send.
type verb uint8

const (
	vRoute verb = iota
	vRouteFrom
	vAlloc
	vRelease
)

func (v verb) String() string {
	return [...]string{"route", "routefrom", "alloc", "release"}[v]
}

// request is one entry of a workload's seeded request stream. Lease IDs
// are minted by the server, so a release names the alloc it undoes by
// that alloc's Seq; a release whose alloc was blocked is skipped.
type request struct {
	Verb verb
	S, T int
	Seq  int // alloc: stream-unique id; release: Seq of the alloc it frees
	Conn int
}

// line renders the request; lease is the server's ID for a release.
func (q request) line(lease int64) string {
	switch q.Verb {
	case vRoute:
		return fmt.Sprintf("route %d %d", q.S, q.T)
	case vRouteFrom:
		return fmt.Sprintf("routefrom %d", q.S)
	case vAlloc:
		return fmt.Sprintf("alloc %d %d", q.S, q.T)
	default:
		return fmt.Sprintf("release %d", lease)
	}
}

// conns is the generator's connection (and thread) count: nproc on the
// reference 2-vCPU host, shared with the server.
const conns = 2

// instanceSeed fixes the generated network; the workload seed varies the
// request stream only.
const instanceSeed = 1

// preloadSeed fixes the sparse300 preload, so every run begins from the
// same residual network.
const preloadSeed = 7

// workload is one traffic mix against one wdmserve instance.
type workload struct {
	name string
	// instance holds the wdmserve instance flags; every other server flag
	// stays at its default so that changes to the defaults are measured.
	instance []string

	// Closed loop: request mix weights (route, routefrom, alloc), mean
	// lease holding time in the connection's later requests, and the
	// untimed per-connection warm-up.
	mix      [3]float64
	holdReqs float64
	warmup   int
	// hot, when non-zero, draws routefrom sources from a fixed hot set
	// of that many nodes instead of from every node.
	hot int
	// preload, when non-nil, is the untimed fixed allocation preload; it
	// stays held through the timed phase.
	preload *preloadSpec

	// replayReqs is how many timed-phase requests the traced replay
	// executes.
	replayReqs int
	// setups is how many times a run launches the server to time set-up.
	setups int
}

// preloadSpec is a fixed allocation preload: allocate until held leases
// reach held, then swaps times release a random held lease and allocate
// a new one, so the residual network settles at a stated load and the
// preload issues enough allocs to state its tail.
type preloadSpec struct {
	held, swaps int
}

// workloads are the BENCHMARK.json workloads, in its order.
var workloads = []*workload{
	{
		name:       "nsfnet-mixed",
		instance:   []string{"-topo", "nsfnet", "-k", "8", "-seed", fmt.Sprint(instanceSeed)},
		mix:        [3]float64{0.70, 0.10, 0.10},
		holdReqs:   200,
		warmup:     2000,
		replayReqs: 30000,
		setups:     15,
	},
	{
		name:       "sparse300-read",
		instance:   []string{"-topo", "sparse", "-n", "300", "-k", "8", "-seed", fmt.Sprint(instanceSeed)},
		mix:        [3]float64{0.90, 0.10, 0},
		warmup:     100,
		hot:        16,
		preload:    &preloadSpec{held: 650, swaps: 450},
		replayReqs: 1500,
		setups:     15,
	},
}

// readOnly reports whether the timed phase only reads, so every answer
// can be checked exactly against the residual network the preload left.
func (w *workload) readOnly() bool { return w.mix[2] == 0 }

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// hotSet is the fixed set routefrom sources are drawn from: the
// workload's hot set, or every node.
func (w *workload) hotSet(n int) []int {
	perm := rand.New(rand.NewSource(instanceSeed)).Perm(n)
	if w.hot > 0 {
		return perm[:w.hot]
	}
	return perm
}

// pair draws uniform distinct endpoints.
func pair(rng *rand.Rand, n int) (int, int) {
	s := rng.Intn(n)
	t := rng.Intn(n - 1)
	if t >= s {
		t++
	}
	return s, t
}

// closedStream is one connection's closed-loop request stream. Each
// alloc's lease is held for an exponentially distributed number of the
// connection's later requests, after which its release is due; due
// releases go out before the next drawn request. This keeps occupancy
// at a stationary point instead of the random walk a LIFO release
// order drifts into.
type closedStream struct {
	rng  *rand.Rand
	w    *workload
	n    int
	hot  []int
	conn int
	idx  int // requests emitted
	seqs int // allocs emitted
	due  dueHeap
}

func newClosedStream(w *workload, n int, seed int64, conn int) *closedStream {
	return &closedStream{
		rng:  rand.New(rand.NewSource(seed*1000003 + int64(conn))),
		w:    w,
		n:    n,
		hot:  w.hotSet(n),
		conn: conn,
	}
}

func (c *closedStream) next() request {
	defer func() { c.idx++ }()
	if len(c.due) > 0 && c.due[0].at <= c.idx {
		d := heap.Pop(&c.due).(dueRelease)
		return request{Verb: vRelease, Seq: d.seq, Conn: c.conn}
	}
	m := c.w.mix
	x := c.rng.Float64() * (m[0] + m[1] + m[2])
	switch {
	case x < m[0]:
		s, t := pair(c.rng, c.n)
		return request{Verb: vRoute, S: s, T: t, Conn: c.conn}
	case x < m[0]+m[1]:
		return request{Verb: vRouteFrom, S: c.hot[c.rng.Intn(len(c.hot))], Conn: c.conn}
	default:
		s, t := pair(c.rng, c.n)
		seq := c.seqs*conns + c.conn
		c.seqs++
		hold := 1 + int(c.rng.ExpFloat64()*c.w.holdReqs)
		heap.Push(&c.due, dueRelease{at: c.idx + hold, seq: seq})
		return request{Verb: vAlloc, S: s, T: t, Seq: seq, Conn: c.conn}
	}
}

type dueRelease struct{ at, seq int }

type dueHeap []dueRelease

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h dueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(dueRelease)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// preloadPlan yields the fixed preload's steps: allocs up to the held
// target, then release/alloc swaps. Which held lease a swap releases is
// drawn from the leases actually granted.
type preloadPlan struct {
	rng  *rand.Rand
	spec preloadSpec
	n    int
}

func newPreloadPlan(spec preloadSpec, n int) *preloadPlan {
	return &preloadPlan{rng: rand.New(rand.NewSource(preloadSeed)), spec: spec, n: n}
}

// preloadExecutor is what a preload runs against: the wire or the
// in-process engine.
type preloadExecutor interface {
	alloc(s, t int) (lease int64, granted bool, err error)
	release(lease int64) error
}

// runPreload drives the preload plan through ex and returns the leases
// it leaves held, in grant order.
func runPreload(ex preloadExecutor, p *preloadPlan) ([]int64, error) {
	var held []int64
	alloc := func() error {
		s, t := pair(p.rng, p.n)
		lease, ok, err := ex.alloc(s, t)
		if err != nil {
			return err
		}
		if ok {
			held = append(held, lease)
		}
		return nil
	}
	for i := 0; i < p.spec.held; i++ {
		if err := alloc(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < p.spec.swaps; i++ {
		if len(held) > 0 {
			j := p.rng.Intn(len(held))
			if err := ex.release(held[j]); err != nil {
				return nil, err
			}
			held = append(held[:j], held[j+1:]...)
		}
		if err := alloc(); err != nil {
			return nil, err
		}
	}
	return held, nil
}
