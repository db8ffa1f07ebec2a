package rkv

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/actor"
)

func e(k, v string) Entry {
	return Entry{Key: padded([]byte(k)), Value: []byte(v)}
}

func tomb(k string) Entry {
	return Entry{Key: padded([]byte(k)), Tombstone: true}
}

func TestSSTStoreLookupNewestWins(t *testing.T) {
	s := NewSSTStore(1 << 20)
	s.AddL0([]Entry{e("a", "old"), e("b", "b1")})
	s.AddL0([]Entry{e("a", "new")})
	v, ok := s.Lookup([]byte("a"))
	if !ok || string(v) != "new" {
		t.Fatalf("Lookup(a) = %q %v", v, ok)
	}
	v, ok = s.Lookup([]byte("b"))
	if !ok || string(v) != "b1" {
		t.Fatalf("Lookup(b) = %q %v", v, ok)
	}
	if _, ok := s.Lookup([]byte("zz")); ok {
		t.Fatal("phantom key")
	}
}

func TestSSTStoreTombstoneHidesOlder(t *testing.T) {
	s := NewSSTStore(1 << 20)
	s.AddL0([]Entry{e("k", "v1")})
	s.AddL0([]Entry{tomb("k")})
	if _, ok := s.Lookup([]byte("k")); ok {
		t.Fatal("tombstone did not hide older value")
	}
}

func TestSSTStoreL0CascadeOnRunCount(t *testing.T) {
	s := NewSSTStore(1 << 30) // byte limits never bind; run count does
	for i := 0; i < s.L0Runs+1; i++ {
		s.AddL0([]Entry{e(fmt.Sprintf("k%d", i), "v")})
	}
	if s.MajorCompactions == 0 {
		t.Fatal("L0 run-count overflow did not trigger a major compaction")
	}
	if len(s.Levels) < 2 {
		t.Fatal("no level 1 created")
	}
	// All keys still visible after the merge.
	for i := 0; i < s.L0Runs+1; i++ {
		if _, ok := s.Lookup([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("key k%d lost in compaction", i)
		}
	}
}

func TestSSTStoreByteLimitCascade(t *testing.T) {
	s := NewSSTStore(256) // tiny level-1 limit
	big := make([]byte, 200)
	for i := 0; i < 12; i++ {
		s.AddL0([]Entry{{Key: padded([]byte(fmt.Sprintf("b%02d", i))), Value: big}})
	}
	if len(s.Levels) < 3 {
		t.Fatalf("cascade depth %d; byte limits never pushed to level 2", len(s.Levels))
	}
	for i := 0; i < 12; i++ {
		if _, ok := s.Lookup([]byte(fmt.Sprintf("b%02d", i))); !ok {
			t.Fatalf("key b%02d lost across cascades", i)
		}
	}
}

func TestSSTStoreBottomLevelDropsTombstones(t *testing.T) {
	s := NewSSTStore(1 << 30)
	s.AddL0([]Entry{e("dead", "v")})
	s.AddL0([]Entry{tomb("dead")})
	// Force merges until the tombstone reaches the bottom.
	for i := 0; i < s.L0Runs+2; i++ {
		s.AddL0([]Entry{e(fmt.Sprintf("pad%d", i), "v")})
	}
	total := 0
	for _, runs := range s.Levels {
		for _, r := range runs {
			for _, en := range r {
				if en.Tombstone {
					total++
				}
			}
		}
	}
	// After the full merge into the bottom level, the tombstone is gone
	// (it may linger only if some runs were not merged yet).
	if _, ok := s.Lookup([]byte("dead")); ok {
		t.Fatal("deleted key resurfaced")
	}
	_ = total
}

func TestNormalizeRunDedupsKeepingNewest(t *testing.T) {
	run := normalizeRun([]Entry{e("k", "v1"), e("a", "x"), e("k", "v2")})
	if len(run) != 2 {
		t.Fatalf("len = %d", len(run))
	}
	for _, en := range run {
		if bytes.Equal(en.Key, padded([]byte("k"))) && string(en.Value) != "v2" {
			t.Fatalf("dedup kept %q, want newest v2", en.Value)
		}
	}
}

func TestMergeRunsOrderAndPrecedence(t *testing.T) {
	newer := Run{e("a", "new"), e("c", "c")}
	older := Run{e("a", "old"), e("b", "b")}
	out := mergeRuns([]Run{newer, older}, false)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if string(out[0].Value) != "new" {
		t.Fatal("newer run should win ties")
	}
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) >= 0 {
			t.Fatal("merge output not sorted")
		}
	}
}

// Property: SSTStore lookups agree with a reference map under random
// write/delete flushes, regardless of compaction activity.
func TestSSTStoreMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSSTStore(512)
		ref := map[string][]byte{}
		batch := []Entry{}
		flush := func() {
			if len(batch) > 0 {
				s.AddL0(batch)
				batch = nil
			}
		}
		for i, op := range ops {
			k := fmt.Sprintf("key-%02d", op%30)
			if op%5 == 0 {
				batch = append(batch, tomb(k))
				delete(ref, k)
			} else {
				v := []byte(fmt.Sprintf("v%d", i))
				batch = append(batch, Entry{Key: padded([]byte(k)), Value: v})
				ref[k] = v
			}
			if op%3 == 0 {
				flush()
			}
		}
		flush()
		for k, want := range ref {
			got, ok := s.Lookup([]byte(k))
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%02d", i)
			if _, inRef := ref[k]; !inRef {
				if _, ok := s.Lookup([]byte(k)); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMemtableActorGetHitMissAndApply(t *testing.T) {
	ctx := newDmoCtx()
	mt := NewMemtable(1, 1<<20, 90, 91)
	mt.Actor.OnInit(ctx)

	var lastReply []byte
	reply := func(m []byte) { lastReply = m }

	// Apply a committed write.
	mt.Actor.OnMessage(ctx, msgWith(kindApply, encodeCmd(command{Op: opPut, Key: []byte("k"), Value: []byte("v")}), nil))
	if mt.List().Count() != 1 {
		t.Fatalf("memtable count %d", mt.List().Count())
	}
	// Hit.
	mt.Actor.OnMessage(ctx, msgWith(kindGet, encodeCmd(command{Op: opGet, Key: []byte("k")}), reply))
	if len(lastReply) == 0 || StatusOf(lastReply) != StatusOK || string(lastReply[1:]) != "v" {
		t.Fatalf("get hit reply %q", lastReply)
	}
	if mt.Hits != 1 {
		t.Fatalf("hits %d", mt.Hits)
	}
	// Tombstone.
	mt.Actor.OnMessage(ctx, msgWith(kindApply, encodeCmd(command{Op: opDel, Key: []byte("k")}), nil))
	mt.Actor.OnMessage(ctx, msgWith(kindGet, encodeCmd(command{Op: opGet, Key: []byte("k")}), reply))
	if StatusOf(lastReply) != StatusNotFound {
		t.Fatalf("get after delete reply %q", lastReply)
	}
}

// msgWith builds a message with an optional reply sink; the dmoCtx used
// in these unit tests has no Reply transport, so we use the fake sink
// via a wrapper ctx.
func msgWith(kind actor.Kind, data []byte, reply func([]byte)) actor.Msg {
	m := actor.Msg{Kind: kind, Data: data, Origin: "t"}
	if reply != nil {
		m.Reply = func(resp actor.Msg) { reply(resp.Data) }
	}
	return m
}

// padded is padKey into a fresh array, for keys the tests keep.
func padded(k []byte) []byte { return padKey(new([keyLen]byte), k) }
