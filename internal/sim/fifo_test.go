package sim

import "testing"

// item stands in for a queued message: a value type with a payload
// pointer the queue must not pin.
type item struct {
	id   int
	data []byte
}

func TestFIFOReleasesConsumedSlots(t *testing.T) {
	var f FIFO[item]
	f.Push(item{data: make([]byte, 1024)})
	f.Push(item{data: make([]byte, 1024)})
	f.Push(item{data: make([]byte, 1024)})
	f.Pop()
	// The consumed slot must not pin its payload: head-advance without
	// zeroing would hold every popped payload alive as long as the queue.
	if f.buf[0].data != nil {
		t.Fatal("slot consumed by Pop still references its payload")
	}
	f.PopTail()
	if tail := f.buf[:3][2]; tail.data != nil {
		t.Fatal("slot consumed by PopTail still references its payload")
	}
}

func TestFIFOCompactionPreservesOrder(t *testing.T) {
	var f FIFO[item]
	for i := 0; i < 100; i++ {
		f.Push(item{id: i})
	}
	// Interleave pops and pushes across the compaction watermark.
	next := 100
	for i := 0; i < 300; i++ {
		v, ok := f.Pop()
		if !ok || v.id != i {
			t.Fatalf("pop %d = id %d ok=%v", i, v.id, ok)
		}
		f.Push(item{id: next})
		next++
	}
	if f.Len() == 0 {
		t.Fatal("expected residual backlog")
	}
}

// TestFIFOPropertyVsReference drives random Push/Pop/PopTail/Drain
// sequences against a plain slice.
func TestFIFOPropertyVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := NewRand(seed)
		var f FIFO[item]
		var ref []item
		next := 0
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(100); {
			case r < 50:
				f.Push(item{id: next})
				ref = append(ref, item{id: next})
				next++
			case r < 85:
				v, ok := f.Pop()
				if ok != (len(ref) > 0) || (ok && v.id != ref[0].id) {
					t.Fatalf("seed %d step %d: Pop = %v %v, reference %v", seed, step, v.id, ok, ref)
				}
				if ok {
					ref = ref[1:]
				}
			case r < 98:
				v, ok := f.PopTail()
				if ok != (len(ref) > 0) || (ok && v.id != ref[len(ref)-1].id) {
					t.Fatalf("seed %d step %d: PopTail = %v %v, reference %v", seed, step, v.id, ok, ref)
				}
				if ok {
					ref = ref[:len(ref)-1]
				}
			default:
				got := f.Drain()
				if len(got) != len(ref) {
					t.Fatalf("seed %d step %d: Drain returned %d, reference %d", seed, step, len(got), len(ref))
				}
				for i := range got {
					if got[i].id != ref[i].id {
						t.Fatalf("seed %d step %d: Drain[%d] = %d, reference %d", seed, step, i, got[i].id, ref[i].id)
					}
				}
				ref = nil
			}
			if f.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, f.Len(), len(ref))
			}
		}
	}
}

func TestFIFOSteadyStateAllocFree(t *testing.T) {
	var f FIFO[item]
	// Warm up the backing array.
	for i := 0; i < 64; i++ {
		f.Push(item{})
	}
	for i := 0; i < 64; i++ {
		f.Pop()
	}
	// A steady-state producer/consumer must reuse the array: the reslice
	// idiom (q = q[1:]) this replaced re-allocated on every burst because
	// append could never reuse the consumed prefix.
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 48; i++ {
			f.Push(item{})
		}
		for i := 0; i < 48; i++ {
			f.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// BenchmarkFIFOSteadyState is the alloc-regression benchmark for the
// message queues: a balanced producer/consumer must report 0 allocs/op.
func BenchmarkFIFOSteadyState(b *testing.B) {
	var f FIFO[item]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Push(item{id: i})
		f.Pop()
	}
}
