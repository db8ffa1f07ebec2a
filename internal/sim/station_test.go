package sim

import "testing"

// TestStationReusedJobAllocFree: a job's in-service state and its
// completion event live on the Job, so a caller that reuses its Jobs
// submits and completes them without allocating.
func TestStationReusedJobAllocFree(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1)
	done := 0
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Service: 10, Done: func(_, _, _ Time) { done++ }}
	}
	round := func() {
		for i := range jobs {
			st.Submit(&jobs[i]) // one starts, seven queue
		}
		e.Run()
	}
	round() // binds each job's completion event, grows the wait queue
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("reused jobs allocate %v per round of %d, want 0", allocs, len(jobs))
	}
	if want := 202 * len(jobs); done != want { // AllocsPerRun adds a warm-up run
		t.Fatalf("%d completions, want %d", done, want)
	}
}

// TestStationJobMovesBetweenStations: the completion event is bound to
// the job, not to the station that first served it.
func TestStationJobMovesBetweenStations(t *testing.T) {
	e := NewEngine(1)
	first, second := NewStation(e, 1), NewStation(e, 1)
	var finished []Time
	j := &Job{Service: 10}
	j.Done = func(_, _, fin Time) {
		finished = append(finished, fin)
		if len(finished) == 1 {
			second.Submit(j) // resubmitted from its own completion
		}
	}
	first.Submit(j)
	e.Run()
	if len(finished) != 2 || finished[0] != 10 || finished[1] != 20 {
		t.Fatalf("finished at %v, want [10 20]", finished)
	}
	if first.busy != 0 || second.busy != 0 {
		t.Fatalf("%d and %d servers busy after the run, want both stations idle", first.busy, second.busy)
	}
}

// TestStationQueueDrainsFIFOAndReleasesSlots: a thousand queued jobs
// start in submission order at any server count, with the enqueue, start
// and finish times a reference FIFO assigns, and once they have drained
// the wait queue no longer references any of them.
func TestStationQueueDrainsFIFOAndReleasesSlots(t *testing.T) {
	const jobs = 1000
	for _, servers := range []int{1, 3} {
		e := NewEngine(1)
		st := NewStation(e, servers)
		rng := NewRand(uint64(servers))
		var order []int
		free := make([]Time, servers) // reference: when each server frees up
		for i := 0; i < jobs; i++ {
			i, service := i, Time(1+rng.Intn(20))
			// Reference FIFO: the job takes the earliest-free server.
			s := 0
			for k := range free {
				if free[k] < free[s] {
					s = k
				}
			}
			wantStart := free[s]
			free[s] += service
			wantFin := free[s]
			st.Submit(&Job{Service: service, Done: func(enq, started, fin Time) {
				order = append(order, i)
				if enq != 0 || started != wantStart || fin != wantFin {
					t.Errorf("servers=%d job %d: enq=%v start=%v fin=%v, want 0 %v %v",
						servers, i, enq, started, fin, wantStart, wantFin)
				}
			}})
		}
		if st.queue.Len() != jobs-servers {
			t.Fatalf("servers=%d: %d queued, want %d", servers, st.queue.Len(), jobs-servers)
		}
		e.Run()
		if len(order) != jobs {
			t.Fatalf("servers=%d: %d completions, want %d", servers, len(order), jobs)
		}
		if servers == 1 {
			for i, got := range order {
				if got != i {
					t.Fatalf("completion %d was job %d: not FIFO", i, got)
				}
			}
		}
		if st.queue.Len() != 0 || st.busy != 0 {
			t.Fatalf("servers=%d: station not drained", servers)
		}
		for i, j := range st.queue.buf[:cap(st.queue.buf)] {
			if j != nil {
				t.Fatalf("servers=%d: drained wait queue still references a job in slot %d", servers, i)
			}
		}
	}
}
