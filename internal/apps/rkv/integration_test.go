package rkv_test

import (
	"fmt"
	"testing"

	"repro/internal/actor"
	"repro/internal/apps/rkv"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// deployRKV builds the paper's topology: one leader and two followers.
func deployRKV(t *testing.T, offload bool, memLimit int) (*core.Cluster, *workload.Client, *rkv.Deployment) {
	t.Helper()
	cl := core.NewCluster(11)
	var nodes []*core.Node
	for i := 0; i < 3; i++ {
		cfg := core.Config{Name: fmt.Sprintf("kv%d", i)}
		if offload {
			cfg.NIC = spec.LiquidIOII_CN2350()
		}
		nodes = append(nodes, cl.AddNode(cfg))
	}
	d, err := rkv.Deploy(nodes, 200, memLimit, offload)
	if err != nil {
		t.Fatal(err)
	}
	client := workload.NewClient(cl, "cli", 10)
	return cl, client, d
}

func put(client *workload.Client, leader actor.ID, key, val string, onResp func(actor.Msg)) {
	client.Send(workload.Request{
		Node: "kv0", Dst: leader, Kind: rkv.KindReq,
		Data: rkv.PutReq([]byte(key), []byte(val)), Size: 512,
		OnResp: onResp,
	})
}

func get(client *workload.Client, leader actor.ID, key string, onResp func(actor.Msg)) {
	client.Send(workload.Request{
		Node: "kv0", Dst: leader, Kind: rkv.KindReq,
		Data: rkv.GetReq([]byte(key)), Size: 512,
		OnResp: onResp,
	})
}

func TestWriteThenRead(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	leader := d.LeaderActor()
	var got []byte
	put(client, leader, "hello", "world", func(resp actor.Msg) {
		if rkv.StatusOf(resp.Data) != rkv.StatusOK {
			t.Errorf("put status %d", resp.Data[0])
		}
		get(client, leader, "hello", func(resp actor.Msg) {
			got = resp.Data
		})
	})
	cl.Eng.Run()
	if len(got) == 0 || rkv.StatusOf(got) != rkv.StatusOK || string(got[1:]) != "world" {
		t.Fatalf("get returned %q", got)
	}
}

func TestWritesReplicateToFollowers(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	leader := d.LeaderActor()
	for i := 0; i < 30; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*50*sim.Microsecond, func() {
			put(client, leader, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i), nil)
		})
	}
	cl.Eng.Run()
	for ri, r := range d.Replicas {
		if r.Consensus.LogLen() != 30 {
			t.Fatalf("replica %d committed %d of 30", ri, r.Consensus.LogLen())
		}
	}
	// Every replica's Memtable holds the data (applied via commit /
	// learn messages): each replica serves reads from its own store.
	served := 0
	for _, r := range d.Replicas {
		for i := 0; i < 30; i++ {
			key, want := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
			client.Send(workload.Request{
				Node: r.Node.Name, Dst: r.Consensus.Actor.ID, Kind: rkv.KindReq,
				Data: rkv.GetReq([]byte(key)), Size: 512,
				OnResp: func(resp actor.Msg) {
					if rkv.StatusOf(resp.Data) != rkv.StatusOK || string(resp.Data[1:]) != want {
						t.Errorf("%s on %s = %q, want %q", key, r.Node.Name, resp.Data, want)
					}
					served++
				},
			})
		}
	}
	cl.Eng.Run()
	if served != 3*30 {
		t.Fatalf("%d of %d reads answered", served, 3*30)
	}
}

// TestEmptyValueRoundTrips: a PUT with an empty value is acknowledged,
// replicated and applied like any other, and the key then reads back
// present and empty, not NotFound.
func TestEmptyValueRoundTrips(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	leader := d.LeaderActor()
	var got []byte
	put(client, leader, "k", "v", func(actor.Msg) {
		put(client, leader, "k", "", func(resp actor.Msg) {
			if rkv.StatusOf(resp.Data) != rkv.StatusOK {
				t.Errorf("empty put status %q", resp.Data)
			}
			get(client, leader, "k", func(resp actor.Msg) { got = resp.Data })
		})
	})
	cl.Eng.Run()
	if rkv.StatusOf(got) != rkv.StatusOK || len(got) != 1 {
		t.Fatalf("get after an empty put = %q, want ok and an empty value", got)
	}
}

// TestUnknownOpRefused: a request whose op is neither GET nor PUT is
// malformed. The leader answers it on the malformed-input path, nothing
// is replicated, and the key keeps its value.
func TestUnknownOpRefused(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	leader := d.LeaderActor()
	bad := rkv.PutReq([]byte("k"), []byte("other"))
	bad[0] = 7
	var status rkv.Status
	var got []byte
	put(client, leader, "k", "v", func(actor.Msg) {
		client.Send(workload.Request{
			Node: "kv0", Dst: leader, Kind: rkv.KindReq, Data: bad, Size: 128,
			OnResp: func(resp actor.Msg) {
				status = rkv.StatusOf(resp.Data)
				get(client, leader, "k", func(resp actor.Msg) { got = resp.Data })
			},
		})
	})
	cl.Eng.Run()
	if status != rkv.StatusNotFound {
		t.Fatalf("op-7 request answered %v, want the malformed-input reply %v", status, rkv.StatusNotFound)
	}
	for ri, r := range d.Replicas {
		if r.Consensus.LogLen() != 1 {
			t.Fatalf("replica %d committed %d instances, want only the put", ri, r.Consensus.LogLen())
		}
	}
	if rkv.StatusOf(got) != rkv.StatusOK || string(got[1:]) != "v" {
		t.Fatalf("get after the op-7 request = %q, want the value put", got)
	}
}

func TestMinorCompactionAndSSTableRead(t *testing.T) {
	// Tiny Memtable so writes spill into SSTables quickly.
	cl, client, d := deployRKV(t, true, 4<<10)
	leader := d.LeaderActor()
	const n = 200
	done := 0
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		put(client, leader, fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%04d", i), func(actor.Msg) {
			done++
			issue(i + 1)
		})
	}
	issue(0)
	cl.Eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d writes", done, n)
	}
	lead := d.Replicas[0]
	if lead.Memtable.Compactions == 0 {
		t.Fatal("no minor compactions despite tiny Memtable")
	}
	// Read a key that has certainly been flushed out of the Memtable:
	// it must come back from the SSTable read actor.
	var got []byte
	get(client, leader, "key-000", func(resp actor.Msg) { got = resp.Data })
	cl.Eng.Run()
	if len(got) == 0 || rkv.StatusOf(got) != rkv.StatusOK || string(got[1:]) != "value-0000" {
		t.Fatalf("SSTable read returned %q", got)
	}
	if lead.Memtable.Misses() == 0 {
		t.Fatal("read did not miss the Memtable")
	}
}

func TestZipfWorkloadMixedOps(t *testing.T) {
	cl, client, d := deployRKV(t, true, 256<<10)
	leader := d.LeaderActor()
	z := workload.NewZipf(cl.Eng.Rand(), 1000, 0.99)
	ok, notFound := 0, 0
	// 95% reads / 5% writes as in §5.1.
	client.ClosedLoop(8, 30*sim.Millisecond, func(i uint64) workload.Request {
		key := fmt.Sprintf("zipf-%06d", z.Next())
		data := rkv.GetReq([]byte(key))
		if i%20 == 0 {
			data = rkv.PutReq([]byte(key), make([]byte, 100))
		}
		return workload.Request{
			Node: "kv0", Dst: leader, Kind: rkv.KindReq, Data: data, Size: 512, FlowID: i,
			OnResp: func(resp actor.Msg) {
				switch rkv.StatusOf(resp.Data) {
				case rkv.StatusOK:
					ok++
				case rkv.StatusNotFound:
					notFound++
				default:
					t.Errorf("unexpected status %d", resp.Data[0])
				}
			},
		}
	})
	cl.Eng.Run()
	if client.Received != client.Sent {
		t.Fatalf("responses %d of %d", client.Received, client.Sent)
	}
	if ok == 0 {
		t.Fatal("no successful operations")
	}
	// Zipf reads mostly hit recently-written hot keys once warm.
	if ok < notFound/4 {
		t.Fatalf("hit ratio implausible: ok=%d notFound=%d", ok, notFound)
	}
}

func TestLeaderElection(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	leader := d.LeaderActor()
	// Commit some writes under the old leader.
	for i := 0; i < 10; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*50*sim.Microsecond, func() {
			put(client, leader, fmt.Sprintf("pre-%d", i), "x", nil)
		})
	}
	// "Fail" the leader: deregister it, then tell replica 1 to elect.
	cl.Eng.At(2*sim.Millisecond, func() {
		d.Replicas[0].Consensus.IsLeader = false
		client.Send(workload.Request{
			Node: "kv1", Dst: d.Replicas[1].Consensus.Actor.ID, Kind: rkv.KindElect,
			Data: []byte{0}, Size: 64,
		})
	})
	cl.Eng.RunUntil(4 * sim.Millisecond)
	if !d.Replicas[1].Consensus.IsLeader {
		t.Fatal("replica 1 did not become leader")
	}
	// New leader serves writes.
	newLeader := d.Replicas[1].Consensus.Actor.ID
	var status rkv.Status
	client.Send(workload.Request{
		Node: "kv1", Dst: newLeader, Kind: rkv.KindReq,
		Data: rkv.PutReq([]byte("post"), []byte("election")), Size: 256,
		OnResp: func(resp actor.Msg) { status = rkv.StatusOf(resp.Data) },
	})
	cl.Eng.Run()
	if status != rkv.StatusOK {
		t.Fatalf("write under new leader: status %d", status)
	}
	// Followers redirect writes.
	if d.Replicas[0].Consensus.IsLeader {
		t.Fatal("old leader still believes it leads")
	}
}

func TestFollowerRedirectsWrites(t *testing.T) {
	cl, client, d := deployRKV(t, true, 1<<20)
	follower := d.Replicas[1].Consensus.Actor.ID
	var status rkv.Status
	client.Send(workload.Request{
		Node: "kv1", Dst: follower, Kind: rkv.KindReq,
		Data: rkv.PutReq([]byte("k"), []byte("v")), Size: 128,
		OnResp: func(resp actor.Msg) { status = rkv.StatusOf(resp.Data) },
	})
	cl.Eng.Run()
	if status != rkv.StatusRedirect {
		t.Fatalf("follower write status %d, want redirect", status)
	}
}

func TestRKVOnBaseline(t *testing.T) {
	cl, client, d := deployRKV(t, false, 1<<20)
	leader := d.LeaderActor()
	var got []byte
	put(client, leader, "base", "line", func(actor.Msg) {
		get(client, leader, "base", func(resp actor.Msg) { got = resp.Data })
	})
	cl.Eng.Run()
	if len(got) == 0 || rkv.StatusOf(got) != rkv.StatusOK || string(got[1:]) != "line" {
		t.Fatalf("baseline RKV broken: %q", got)
	}
	_ = d
}
