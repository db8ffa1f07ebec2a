package sim

// Job is a unit of work with a known service demand at a Station.
type Job struct {
	// Service is how long the job occupies the server.
	Service Time
	// Done, if non-nil, runs when the job completes service.
	Done func(enqueued, started, finished Time)

	// In-service state lives on the job itself, so starting a job
	// allocates nothing once fire is bound: a caller that embeds its Jobs
	// in a recycled record (netsim's flight) schedules them for free. A
	// job is in at most one station at a time.
	enqueued, started Time
	st                *Station
	fire              func() // j.complete, bound on first start
}

// Station is a FIFO queueing station with a configurable number of
// identical servers (a G/G/k queue). It is the building block for DMA
// engines, link serializers, and other pipeline stages whose internal
// scheduling is plain FIFO. Cores with nontrivial disciplines live in
// internal/sched instead.
type Station struct {
	eng     *Engine
	servers int
	busy    int
	queue   FIFO[*Job]
}

// NewStation creates a station with the given number of parallel servers.
func NewStation(eng *Engine, servers int) *Station {
	if servers <= 0 {
		panic("sim: station needs at least one server")
	}
	return &Station{eng: eng, servers: servers}
}

// Submit enqueues a job; it starts immediately if a server is idle.
func (s *Station) Submit(j *Job) {
	j.enqueued = s.eng.Now()
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue.Push(j)
}

func (s *Station) start(j *Job) {
	s.busy++
	j.started = s.eng.Now()
	j.st = s
	if j.fire == nil {
		j.fire = j.complete
	}
	s.eng.After(j.Service, j.fire)
}

// complete is the job's service-completion event. Done may resubmit or
// recycle the job, so nothing reads it afterwards.
func (j *Job) complete() {
	s := j.st
	s.busy--
	if j.Done != nil {
		j.Done(j.enqueued, j.started, s.eng.Now())
	}
	s.dispatch()
}

func (s *Station) dispatch() {
	for s.busy < s.servers {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.start(j)
	}
}
