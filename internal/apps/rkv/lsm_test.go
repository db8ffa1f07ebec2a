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
	s := NewSSTStore(1 << 20)
	s.addL0([]entry{e("a", "old"), e("b", "b1")})
	s.addL0([]entry{e("a", "new")})
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
	s := NewSSTStore(1 << 20)
	s.addL0([]entry{e("k", "v1")})
	s.addL0([]entry{e("k", "")})
	if v, ok := s.lookup([]byte("k")); !ok || len(v) != 0 {
		t.Fatalf("Lookup(k) = %q %v; want present and empty", v, ok)
	}
}

func TestSSTStoreL0CascadeOnRunCount(t *testing.T) {
	s := NewSSTStore(1 << 30) // byte limits never bind; run count does
	rewritten := 0
	for i := 0; i < s.l0Runs+1; i++ {
		rewritten += s.addL0([]entry{e(fmt.Sprintf("k%d", i), "v")})
	}
	if rewritten == 0 {
		t.Fatal("L0 run-count overflow did not trigger a major compaction")
	}
	if len(s.levels) < 2 {
		t.Fatal("no level 1 created")
	}
	// All keys still visible after the merge.
	for i := 0; i < s.l0Runs+1; i++ {
		if _, ok := s.lookup([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("key k%d lost in compaction", i)
		}
	}
}

func TestSSTStoreByteLimitCascade(t *testing.T) {
	s := NewSSTStore(256) // tiny level-1 limit
	big := make([]byte, 200)
	for i := 0; i < 12; i++ {
		s.addL0([]entry{{key: padded([]byte(fmt.Sprintf("b%02d", i))), value: big}})
	}
	if len(s.levels) < 3 {
		t.Fatalf("cascade depth %d; byte limits never pushed to level 2", len(s.levels))
	}
	for i := 0; i < 12; i++ {
		if _, ok := s.lookup([]byte(fmt.Sprintf("b%02d", i))); !ok {
			t.Fatalf("key b%02d lost across cascades", i)
		}
	}
}

// TestSSTStoreBottomLevelDropsTombstones: a merge into the bottom level
// drops only the older versions of a key. An empty value is a value, so
// it survives the merge and still hides the older one.
func TestSSTStoreBottomLevelDropsTombstones(t *testing.T) {
	s := NewSSTStore(1 << 30)
	s.addL0([]entry{e("empty", "v")})
	s.addL0([]entry{e("empty", "")})
	// Force merges until the empty value reaches the bottom.
	for i := 0; i < s.l0Runs+2; i++ {
		s.addL0([]entry{e(fmt.Sprintf("pad%d", i), "v")})
	}
	if len(s.levels) < 2 {
		t.Fatal("no merge reached level 1")
	}
	if v, ok := s.lookup([]byte("empty")); !ok || len(v) != 0 {
		t.Fatalf("Lookup(empty) = %q %v after the merges; want present and empty", v, ok)
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

func TestMergeRunsOrderAndPrecedence(t *testing.T) {
	newer := run{e("a", "new"), e("c", "c")}
	older := run{e("a", "old"), e("b", "b")}
	out := mergeRuns([]run{newer, older})
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	if string(out[0].value) != "new" {
		t.Fatal("newer run should win ties")
	}
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].key, out[i].key) >= 0 {
			t.Fatal("merge output not sorted")
		}
	}
}

// Property: SSTStore lookups agree with a reference map under random
// flushes of writes and empty writes, regardless of compaction activity.
func TestSSTStoreMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSSTStore(512)
		ref := map[string][]byte{}
		batch := []entry{}
		flush := func() {
			if len(batch) > 0 {
				s.addL0(batch)
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
