package rkv

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/actor"
)

func e(k, v string) entry {
	return entry{key: padded([]byte(k)), value: []byte(v)}
}

func TestSSTStoreLookupNewestWins(t *testing.T) {
	s := NewSSTStore()
	s.add([]entry{e("a", "old"), e("b", "b1")})
	s.add([]entry{e("a", "new")})
	v, ok := s.lookup([]byte("a"))
	if !ok || string(v) != "new" {
		t.Fatalf("Lookup(a) = %q %v", v, ok)
	}
	v, ok = s.lookup([]byte("b"))
	if !ok || string(v) != "b1" {
		t.Fatalf("Lookup(b) = %q %v", v, ok)
	}
	if _, ok := s.lookup([]byte("zz")); ok {
		t.Fatal("phantom key")
	}
}

// TestSSTStoreTombstoneHidesOlder: a newer empty value hides an older
// value, and the key reads back present and empty.
func TestSSTStoreTombstoneHidesOlder(t *testing.T) {
	s := NewSSTStore()
	s.add([]entry{e("k", "v1")})
	s.add([]entry{e("k", "")})
	if v, ok := s.lookup([]byte("k")); !ok || len(v) != 0 {
		t.Fatalf("Lookup(k) = %q %v; want present and empty", v, ok)
	}
}

func TestNormalizeRunDedupsKeepingNewest(t *testing.T) {
	run := normalizeRun([]entry{e("k", "v1"), e("a", "x"), e("k", "v2")})
	if len(run) != 2 {
		t.Fatalf("len = %d", len(run))
	}
	for _, en := range run {
		if bytes.Equal(en.key, padded([]byte("k"))) && string(en.value) != "v2" {
			t.Fatalf("dedup kept %q, want newest v2", en.value)
		}
	}
}

// Property: SSTStore lookups agree with a reference map under random
// flushes of writes and empty writes, across more level-0 runs than the
// four at which a leveled store would first merge.
func TestSSTStoreMatchesMapProperty(t *testing.T) {
	most := 0
	f := func(ops []uint16) bool {
		s := NewSSTStore()
		ref := map[string][]byte{}
		batch := []entry{}
		flush := func() {
			if len(batch) > 0 {
				s.add(batch)
				batch = nil
			}
		}
		for i, op := range ops {
			k := fmt.Sprintf("key-%02d", op%30)
			var v []byte
			if op%5 != 0 {
				v = []byte(fmt.Sprintf("v%d", i))
			}
			batch = append(batch, entry{key: padded([]byte(k)), value: v})
			ref[k] = v
			if op%3 == 0 {
				flush()
			}
		}
		flush()
		most = max(most, len(s.runs))
		for k, want := range ref {
			got, ok := s.lookup([]byte(k))
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%02d", i)
			if _, inRef := ref[k]; !inRef {
				if _, ok := s.lookup([]byte(k)); ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if most <= 4 {
		t.Fatalf("no case flushed more than 4 runs (most %d)", most)
	}
}

func TestMemtableActorGetHitMissAndApply(t *testing.T) {
	ctx := newDmoCtx()
	mt := NewMemtable(1, 1<<20, 90, 91)
	mt.Actor.OnInit(ctx)

	var lastReply []byte
	reply := func(m []byte) { lastReply = m }

	// Apply a committed write.
	mt.Actor.OnMessage(ctx, msgWith(kindApply, encodeCmd(command{op: opPut, key: []byte("k"), value: []byte("v")}), nil))
	// Hit.
	mt.Actor.OnMessage(ctx, msgWith(kindGet, encodeCmd(command{op: opGet, key: []byte("k")}), reply))
	if len(lastReply) == 0 || StatusOf(lastReply) != StatusOK || string(lastReply[1:]) != "v" {
		t.Fatalf("get hit reply %q", lastReply)
	}
	// An empty value overwrites, and a hit returns it.
	mt.Actor.OnMessage(ctx, msgWith(kindApply, encodeCmd(command{op: opPut, key: []byte("k")}), nil))
	mt.Actor.OnMessage(ctx, msgWith(kindGet, encodeCmd(command{op: opGet, key: []byte("k")}), reply))
	if StatusOf(lastReply) != StatusOK || len(lastReply) != 1 {
		t.Fatalf("get after an empty put reply %q, want ok and empty", lastReply)
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
