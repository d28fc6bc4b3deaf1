package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// maxQueue is how many open-loop arrivals may wait for a worker; an arrival
// that finds the queue full is shed and counts as failed.
const maxQueue = 64

// errWrong marks a wrong answer. Any wrong answer fails the benchmark run.
var errWrong = errors.New("wrong answer")

// job is one operation to run.
type job struct {
	kind opKind
	due  time.Time // scheduled arrival (open loop) or issue time (closed loop)
	open bool      // scheduled by an open loop
	draw uint64    // seeded randomness: which user, record, owner or upload ID
}

// execFunc performs one op. It may set o.after to an untimed check that
// runs once the op's latency is recorded.
type execFunc func(o *opRun, j job) error

// pass is one timed run of a workload's traffic mix.
type pass struct {
	rng *rand.Rand
	dur time.Duration
	tr  *tracer // nil: untraced
	rec *recorder
}

// arrival is one scheduled open-loop op.
type arrival struct {
	at  time.Duration // offset from the start of the pass
	job job
}

// share is an op type's weight in an open loop's mix.
type share struct {
	kind   opKind
	weight int
}

// schedule draws an open loop's arrivals: rate·dur of them at times uniform
// over the pass, sorted — a Poisson process of that rate conditioned on its
// count. The op types are dealt in the exact proportions of mix before the
// times are sorted, which shuffles them, so every seed offers the same load
// and the same mix.
func (p *pass) schedule(rate float64, mix ...share) []arrival {
	n := int(math.Round(rate * p.dur.Seconds()))
	deck := deal(mix)
	arr := make([]arrival, n)
	for i := range arr {
		arr[i].at = time.Duration(p.rng.Float64() * float64(p.dur))
		arr[i].job = job{kind: deck[i%len(deck)], open: true}
	}
	sort.Slice(arr, func(a, b int) bool { return arr[a].at < arr[b].at })
	for i := range arr {
		arr[i].job.draw = p.rng.Uint64()
	}
	return arr
}

// openLoop dispatches the arrivals on time regardless of how the workers keep
// up, and returns once every queued op has completed.
func (p *pass) openLoop(arr []arrival, workers int, exec execFunc) {
	queue := make(chan job, maxQueue)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range queue {
				p.runOp(j, exec)
			}
		}()
	}
	start := time.Now()
	for _, a := range arr {
		j := a.job
		j.due = start.Add(a.at)
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		p.rec.lag(time.Since(j.due))
		select {
		case queue <- j:
		default:
			p.rec.shed()
		}
	}
	close(queue)
	wg.Wait()
}

// closedLoop issues ops back to back on one worker until the pass ends,
// dealing their types from a deck holding mix in exact proportions,
// reshuffled every round; seed drives its choices.
func (p *pass) closedLoop(seed uint64, exec execFunc, mix ...share) {
	rng := rand.New(rand.NewPCG(seed, 0))
	deck := deal(mix)
	deadline := time.Now().Add(p.dur)
	for n := 0; time.Now().Before(deadline); n++ {
		if n%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		p.runOp(job{kind: deck[n%len(deck)], due: time.Now(), draw: rng.Uint64()}, exec)
	}
}

// deal lays out one round of mix: each op type as often as its weight.
func deal(mix []share) []opKind {
	var deck []opKind
	for _, s := range mix {
		for i := 0; i < s.weight; i++ {
			deck = append(deck, s.kind)
		}
	}
	return deck
}

// runOp runs one op, timing it from its due time, and then its untimed check.
func (p *pass) runOp(j job, exec execFunc) {
	o := &opRun{tr: p.tr, kind: j.kind}
	if p.tr != nil {
		o.id = p.tr.newID()
	}
	start := time.Now()
	err := exec(o, j)
	end := time.Now()
	if p.tr != nil {
		p.tr.add(span{ID: p.tr.newID(), Parent: o.id, Kind: j.kind, Layer: layerWait, Start: p.tr.at(j.due), End: p.tr.at(start)})
		p.tr.add(span{ID: o.id, Kind: j.kind, Layer: layerOp, Start: p.tr.at(start), End: p.tr.at(end)})
	}
	p.rec.done(j, start, end, err)
	if err == nil && o.after != nil {
		if err := o.after(); err != nil {
			p.rec.checkFailed(j.kind, err)
		}
	}
}

// parallel runs the functions concurrently and waits for all of them.
func parallel(fs ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fs))
	for _, f := range fs {
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// recorder collects one pass's outcomes.
type recorder struct {
	mu     sync.Mutex
	lat    [numKinds][]time.Duration
	failed [numKinds]int
	shedN  int
	wrong  int
	errs   []string // the first few failures, for the report
	lags   []time.Duration
	waits  []time.Duration
	// Engine activity reported by the re-encrypt replies.
	windows, revokes int
}

func (r *recorder) done(j job, start, end time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if j.open {
		r.waits = append(r.waits, start.Sub(j.due))
	}
	if err == nil {
		r.lat[j.kind] = append(r.lat[j.kind], end.Sub(j.due))
		return
	}
	r.failed[j.kind]++
	if errors.Is(err, errWrong) {
		r.wrong++
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", j.kind, err))
	}
}

// checkFailed records a failed untimed check: a wrong answer that does not
// change the op counts.
func (r *recorder) checkFailed(k opKind, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrong++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf("%s check: %v", k, err))
	}
}

func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	r.lags = append(r.lags, d)
	r.mu.Unlock()
}

func (r *recorder) shed() {
	r.mu.Lock()
	r.shedN++
	r.mu.Unlock()
}

func (r *recorder) engine(windows int) {
	r.mu.Lock()
	r.windows += windows
	r.revokes++
	r.mu.Unlock()
}

// totals returns the completed ops, and the failed ones including shed
// arrivals.
func (r *recorder) totals() (ok, failed int) {
	for k := range r.lat {
		ok += len(r.lat[k])
		failed += r.failed[k]
	}
	return ok, failed + r.shedN
}

// sampleBytes is the memory the recorder's own sample buffers hold, which
// heap_live_mb leaves out so that it does not grow with throughput.
func (r *recorder) sampleBytes() int64 {
	n := cap(r.lags) + cap(r.waits)
	for _, l := range r.lat {
		n += cap(l)
	}
	return int64(n) * 8
}

// typical returns the geometric mean, over the op types the pass completed,
// of each type's q-quantile latency, in unit. A quantile of all latencies
// pooled would fall between the modes of two op types (a 25 µs RPC fetch
// beside a 70 µs HTTP fetch, a 9 ms read beside a 170 ms revocation), where
// it moves with the op mix and with noise more than with any op's latency.
// The geometric mean weighs a relative change of every op type alike.
func (r *recorder) typical(q float64, unit time.Duration) float64 {
	sum, n := 0.0, 0
	for _, l := range r.lat {
		if len(l) > 0 {
			sum += math.Log(durQuantile(l, q, unit))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
