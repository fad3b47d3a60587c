// Package sim is a small discrete-event simulation engine used by the
// experiment harness to reproduce the paper's throughput figures.
//
// Latency figures come from the real middleware running over the virtual
// fabric (each packet accumulates calibrated stage costs), but sustained
// throughput is a queueing phenomenon: back-to-back messages pipeline
// through CPU cores, the NIC and the wire, and the slowest stage governs
// the rate. The engine models each pipeline stage as a FIFO server with
// deterministic per-job service times and lets experiments measure
// makespan, per-job latency and per-stage utilization — and, in tests,
// cross-check the analytic bottleneck model of internal/model.
package sim

import (
	"container/heap"
	"time"

	"github.com/insane-mw/insane/internal/timebase"
)

// event is one scheduled callback.
type event struct {
	at  timebase.VTime
	seq uint64 // FIFO tie-break for simultaneous events
	fn  func()
}

// eventQueue is a min-heap of events ordered by (time, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a sequential discrete-event executor. Not safe for concurrent
// use; a simulation runs on one goroutine.
type Engine struct {
	now timebase.VTime
	q   eventQueue
	seq uint64
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() timebase.VTime { return e.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (e *Engine) At(t timebase.VTime, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.q, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d after the current time.
func (e *Engine) After(d time.Duration, fn func()) { e.At(e.now.Add(d), fn) }

// Step executes the next event; it reports whether one existed.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	ev := heap.Pop(&e.q).(*event)
	e.now = ev.at
	ev.fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.q) }

// Server is a single FIFO resource (a CPU core, a NIC engine, the wire):
// jobs occupy it for their service time in arrival order.
type Server struct {
	eng  *Engine
	name string
	free timebase.VTime
	busy time.Duration
}

// NewServer attaches a named server to the engine.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// Process enqueues a job arriving now with the given service time; done
// (optional) runs at completion. Returns the completion time.
func (s *Server) Process(service time.Duration, done func(end timebase.VTime)) timebase.VTime {
	start := timebase.Max(s.eng.Now(), s.free)
	end := start.Add(service)
	s.free = end
	s.busy += service
	if done != nil {
		s.eng.At(end, func() { done(end) })
	}
	return end
}

// Utilization returns busy time over the horizon (or over Now if zero).
func (s *Server) Utilization(horizon time.Duration) float64 {
	if horizon <= 0 {
		horizon = time.Duration(s.eng.Now())
	}
	if horizon <= 0 {
		return 0
	}
	return float64(s.busy) / float64(horizon)
}

// StageSpec describes one pipeline stage for RunPipeline.
type StageSpec struct {
	// Name identifies the stage in results.
	Name string
	// Service returns the occupancy of job i on this stage.
	Service func(job int) time.Duration
	// Delay is added after the stage completes without occupying it
	// (propagation, switch latency, scheduling waits).
	Delay time.Duration
}

// Result summarizes one pipeline run.
type Result struct {
	// Latency holds each job's source-to-sink virtual latency.
	Latency []time.Duration
	// Makespan is the completion time of the last job.
	Makespan time.Duration
	// Utilization maps stage name to busy fraction over the makespan.
	Utilization map[string]float64
}

// RunPipeline pushes jobs back-to-back (all arrive at time zero, as in
// the paper's stress test that sends one million messages at full speed)
// through the stages and collects latency and utilization.
func RunPipeline(stages []StageSpec, jobs int) Result {
	eng := NewEngine()
	servers := make([]*Server, len(stages))
	for i, st := range stages {
		servers[i] = NewServer(eng, st.Name)
	}
	res := Result{Latency: make([]time.Duration, jobs)}
	starts := make([]timebase.VTime, jobs)

	// advance moves job j through stage i at the current time.
	var advance func(j, i int)
	advance = func(j, i int) {
		if i == len(stages) {
			res.Latency[j] = eng.Now().Sub(starts[j])
			if m := eng.Now().Duration(); m > res.Makespan {
				res.Makespan = m
			}
			return
		}
		st := stages[i]
		service := time.Duration(0)
		if st.Service != nil {
			service = st.Service(j)
		}
		servers[i].Process(service, func(end timebase.VTime) {
			if st.Delay > 0 {
				eng.At(end.Add(st.Delay), func() { advance(j, i+1) })
				return
			}
			advance(j, i+1)
		})
	}
	for j := 0; j < jobs; j++ {
		j := j
		starts[j] = 0
		eng.At(0, func() { advance(j, 0) })
	}
	eng.Run()

	res.Utilization = make(map[string]float64, len(servers))
	for _, s := range servers {
		res.Utilization[s.Name()] += s.Utilization(res.Makespan)
	}
	return res
}

// Goodput converts a pipeline run into sustained goodput for a payload
// size: total payload bytes over the makespan.
func (r Result) Goodput(payload int) timebase.Rate {
	if r.Makespan <= 0 {
		return 0
	}
	return timebase.Goodput(payload*len(r.Latency), r.Makespan)
}
