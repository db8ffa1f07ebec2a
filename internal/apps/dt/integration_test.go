package dt

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// deployDT builds the paper's DT topology: coordinator on one node,
// participants on two others, logging actor on the coordinator's host.
func deployDT(t *testing.T, offload bool) (*core.Cluster, *workload.Client, *Coordinator, []*Store) {
	t.Helper()
	cl := core.NewCluster(7)
	mk := func(name string) *core.Node {
		cfg := core.Config{Name: name}
		if offload {
			cfg.NIC = spec.LiquidIOII_CN2350()
		}
		return cl.AddNode(cfg)
	}
	nc := mk("coord")
	n1 := mk("part1")
	n2 := mk("part2")

	st1, st2 := NewStore(), NewStore()
	p1 := NewParticipant(101, st1)
	p2 := NewParticipant(102, st2)
	logger := NewLogger(103, nil)
	coord := NewCoordinator(100, []actor.ID{101, 102}, 103)

	if err := n1.Register(p1, offload, 0); err != nil {
		t.Fatal(err)
	}
	if err := n2.Register(p2, offload, 0); err != nil {
		t.Fatal(err)
	}
	if err := nc.Register(logger, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := nc.Register(coord.Actor, offload, 0); err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	return cl, client, coord, []*Store{st1, st2}
}

func txnReq(i uint64, withWrite bool) workload.Request {
	txn := Txn{
		Reads: []Op{
			{Key: []byte(fmt.Sprintf("r-%d", i%50))},
			{Key: []byte(fmt.Sprintf("r-%d", (i+7)%50))},
		},
	}
	if withWrite {
		txn.Writes = []Op{{
			Key:   []byte(fmt.Sprintf("w-%d", i%20)),
			Value: []byte(fmt.Sprintf("val-%d", i)),
		}}
	}
	return workload.Request{
		Node: "coord", Dst: 100, Kind: KindTxn,
		Data: EncodeTxn(txn), Size: 512, FlowID: i,
	}
}

func TestTransactionsCommitOnNIC(t *testing.T) {
	cl, client, coord, stores := deployDT(t, true)
	// Spaced transactions: no contention, all should commit.
	for i := uint64(0); i < 40; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		i := i
		cl.Eng.At(at, func() { client.Send(txnReq(i, true)) })
	}
	cl.Eng.Run()
	if client.Received != 40 {
		t.Fatalf("client got %d of 40 responses", client.Received)
	}
	if coord.Committed != 40 || coord.Aborted != 0 {
		t.Fatalf("committed %d aborted %d", coord.Committed, coord.Aborted)
	}
	// Writes landed in the participant stores with bumped versions.
	total := 0
	for _, s := range stores {
		total += s.Len()
	}
	if total < 20 { // 20 distinct write keys plus read-miss records
		t.Fatalf("stores hold %d records", total)
	}
	for _, s := range stores {
		for i := 0; i < 20; i++ {
			if r := s.Get([]byte(fmt.Sprintf("w-%d", i))); r != nil {
				if r.locked {
					t.Fatalf("key w-%d left locked", i)
				}
				if r.version == 0 {
					t.Fatalf("key w-%d version not bumped", i)
				}
			}
		}
	}
}

func TestTransactionsReadYourWrites(t *testing.T) {
	cl, client, _, _ := deployDT(t, true)
	var got map[string][]byte
	write := Txn{Writes: []Op{{Key: []byte("k"), Value: []byte("hello")}}}
	read := Txn{Reads: []Op{{Key: []byte("k")}}}
	client.Send(workload.Request{
		Node: "coord", Dst: 100, Kind: KindTxn, Data: EncodeTxn(write), Size: 256,
		OnResp: func(resp actor.Msg) {
			client.Send(workload.Request{
				Node: "coord", Dst: 100, Kind: KindTxn, Data: EncodeTxn(read), Size: 256,
				OnResp: func(resp actor.Msg) {
					out, vals := DecodeOutcome(resp.Data)
					if out != OutcomeCommitted {
						t.Errorf("read txn outcome %d", out)
					}
					got = vals
				},
			})
		},
	})
	cl.Eng.Run()
	if string(got["k"]) != "hello" {
		t.Fatalf("read-your-writes: got %q", got["k"])
	}
}

func TestContendedTransactionsAbort(t *testing.T) {
	cl, client, coord, _ := deployDT(t, true)
	// A storm of transactions all writing the same key: lock conflicts
	// must produce aborts, and every abort must release its locks so
	// later transactions can still commit.
	for i := uint64(0); i < 100; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*2*sim.Microsecond, func() {
			txn := Txn{
				Reads:  []Op{{Key: []byte("hot-r")}},
				Writes: []Op{{Key: []byte("hot-w"), Value: []byte(fmt.Sprintf("%d", i))}},
			}
			client.Send(workload.Request{
				Node: "coord", Dst: 100, Kind: KindTxn,
				Data: EncodeTxn(txn), Size: 256, FlowID: i,
			})
		})
	}
	cl.Eng.Run()
	if client.Received != 100 {
		t.Fatalf("responses %d of 100", client.Received)
	}
	if coord.Aborted == 0 {
		t.Fatal("no aborts under heavy write contention")
	}
	if coord.Committed == 0 {
		t.Fatal("no commits at all: aborts are not releasing locks")
	}
	if coord.Committed+coord.Aborted != 100 {
		t.Fatalf("outcome accounting: %d + %d != 100", coord.Committed, coord.Aborted)
	}
}

func TestCoordinatorLogCheckpoints(t *testing.T) {
	cl, client, coord, _ := deployDT(t, true)
	// Enough committed write transactions to overflow the 64KB log.
	const n = 3000
	done := 0
	var issue func(i uint64)
	issue = func(i uint64) {
		if i >= n {
			return
		}
		txn := Txn{Writes: []Op{{
			Key:   []byte(fmt.Sprintf("k-%d", i%500)),
			Value: make([]byte, 16),
		}}}
		client.Send(workload.Request{
			Node: "coord", Dst: 100, Kind: KindTxn,
			Data: EncodeTxn(txn), Size: 128, FlowID: i,
			OnResp: func(actor.Msg) { done++; issue(i + 1) },
		})
	}
	issue(0)
	cl.Eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if coord.Checkpoints == 0 {
		t.Fatal("log never checkpointed despite overflow volume")
	}
}

func TestTransactionsOnBaseline(t *testing.T) {
	cl, client, coord, _ := deployDT(t, false)
	for i := uint64(0); i < 20; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*100*sim.Microsecond, func() { client.Send(txnReq(i, true)) })
	}
	cl.Eng.Run()
	if coord.Committed != 20 {
		t.Fatalf("baseline committed %d of 20", coord.Committed)
	}
}

// TestDTLatencyAdvantage reproduces §5.3's direction: iPipe cuts DT
// request latency versus the DPDK baseline at low load.
func TestDTLatencyAdvantage(t *testing.T) {
	run := func(offload bool) float64 {
		cl, client, _, _ := deployDT(t, offload)
		for i := uint64(0); i < 50; i++ {
			i := i
			cl.Eng.At(sim.Time(i)*200*sim.Microsecond, func() { client.Send(txnReq(i, true)) })
		}
		cl.Eng.Run()
		if client.Received != 50 {
			t.Fatalf("offload=%v: %d of 50", offload, client.Received)
		}
		return client.Lat.Percentile(50)
	}
	base, ipipe := run(false), run(true)
	if ipipe >= base {
		t.Fatalf("iPipe DT median %vµs should beat baseline %vµs", ipipe, base)
	}
}
