package sim

// Job is a unit of work with a known service demand at a Station.
type Job struct {
	// Service is how long the job occupies the server.
	Service Time
	// Done, if non-nil, runs when the job completes service.
	Done func(enqueued, started, finished Time)
	// Payload carries arbitrary caller context through the station.
	Payload any

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

	// Busy time accounting for utilization measurements.
	busyAccum  Time
	lastChange Time
	createdAt  Time

	// Stats.
	completed uint64
	maxQueue  int
}

// NewStation creates a station with the given number of parallel servers.
func NewStation(eng *Engine, servers int) *Station {
	if servers <= 0 {
		panic("sim: station needs at least one server")
	}
	return &Station{eng: eng, servers: servers, lastChange: eng.Now(), createdAt: eng.Now()}
}

// Servers returns the number of parallel servers.
func (s *Station) Servers() int { return s.servers }

// QueueLen returns the number of jobs waiting (not in service).
func (s *Station) QueueLen() int { return s.queue.Len() }

// InService returns the number of jobs currently being served.
func (s *Station) InService() int { return s.busy }

// Completed returns the number of jobs that finished service.
func (s *Station) Completed() uint64 { return s.completed }

// MaxQueue returns the high-water mark of the wait queue.
func (s *Station) MaxQueue() int { return s.maxQueue }

// Submit enqueues a job; it starts immediately if a server is idle.
func (s *Station) Submit(j *Job) {
	j.enqueued = s.eng.Now()
	if s.busy < s.servers {
		s.start(j)
		return
	}
	s.queue.Push(j)
	if n := s.queue.Len(); n > s.maxQueue {
		s.maxQueue = n
	}
}

func (s *Station) start(j *Job) {
	s.account()
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
	s.account()
	s.busy--
	s.completed++
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

func (s *Station) account() {
	now := s.eng.Now()
	s.busyAccum += Time(s.busy) * (now - s.lastChange)
	s.lastChange = now
}

// Utilization returns the mean fraction of server capacity used since the
// station was created (1.0 means all servers always busy).
func (s *Station) Utilization() float64 {
	s.account()
	elapsed := s.eng.Now() - s.createdAt
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busyAccum) / float64(int64(elapsed)*int64(s.servers))
}
