package dt

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	s.Put([]byte("k1"), &Record{Value: []byte("v1"), Version: 1})
	s.Put([]byte("k2"), &Record{Value: []byte("v2"), Version: 2})
	if r := s.Get([]byte("k1")); r == nil || string(r.Value) != "v1" {
		t.Fatalf("Get(k1) = %v", r)
	}
	if r := s.Get([]byte("missing")); r != nil {
		t.Fatal("missing key returned a record")
	}
	// Overwrite replaces.
	s.Put([]byte("k1"), &Record{Value: []byte("v1b"), Version: 3})
	if r := s.Get([]byte("k1")); string(r.Value) != "v1b" || s.Len() != 2 {
		t.Fatalf("overwrite broken: %v len=%d", r, s.Len())
	}
}

func TestStoreSplitsAndDoubles(t *testing.T) {
	s := NewStore()
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		s.Put(k, &Record{Value: k, Version: uint64(i)})
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Splits == 0 || s.Doublings == 0 {
		t.Fatalf("no splits (%d) or doublings (%d) after 1000 inserts", s.Splits, s.Doublings)
	}
	// All keys still retrievable after restructuring.
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		r := s.Get(k)
		if r == nil || !bytes.Equal(r.Value, k) {
			t.Fatalf("key %d lost after splits", i)
		}
	}
	g, l := s.Depths()
	if l > g {
		t.Fatalf("local depth %d exceeds global %d", l, g)
	}
}

// Property: the extendible hash table behaves exactly like a map under
// random insert/overwrite sequences.
func TestStoreMatchesMapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewStore()
		ref := map[string]uint64{}
		for i, op := range ops {
			k := []byte(fmt.Sprintf("k%d", op%300))
			s.Put(k, &Record{Version: uint64(i)})
			ref[string(k)] = uint64(i)
		}
		if s.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			r := s.Get([]byte(k))
			if r == nil || r.Version != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// decodeTxn is decodeTxnInto into a fresh Txn.
func decodeTxn(p []byte) (Txn, bool) {
	var t Txn
	ok := decodeTxnInto(p, &t)
	return t, ok
}

func TestTxnCodecRoundTrip(t *testing.T) {
	in := Txn{
		Reads:  []Op{{Key: []byte("r1")}, {Key: []byte("r2")}},
		Writes: []Op{{Key: []byte("w1"), Value: []byte("value-1")}},
	}
	out, ok := decodeTxn(EncodeTxn(in))
	if !ok {
		t.Fatal("decode failed")
	}
	if len(out.Reads) != 2 || len(out.Writes) != 1 {
		t.Fatalf("shape: %+v", out)
	}
	if string(out.Writes[0].Value) != "value-1" || string(out.Reads[1].Key) != "r2" {
		t.Fatalf("content: %+v", out)
	}
}

func TestTxnCodecMalformedInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{5, 0}, // claims 5 reads, no data
		{1, 0, 3, 'a'},
		EncodeTxn(Txn{Reads: []Op{{Key: []byte("x")}}})[:2],
	}
	for i, p := range cases {
		if _, ok := decodeTxn(p); ok && p != nil && len(p) < 4 {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
	// A hostile 2-byte count with truncated body must not panic.
	defer func() {
		if recover() != nil {
			t.Fatal("decoder panicked on malformed input")
		}
	}()
	decodeTxn([]byte{255, 255, 1, 2, 3})
}

// FuzzTxnCodec: no input panics decodeTxnInto, even into a Txn still
// holding an earlier decode; a rejected input leaves it empty; every key
// and value it accepts lies inside the input and cannot be grown; and
// EncodeTxn gives back exactly the bytes it consumed, so the decode of
// EncodeTxn(t) is t for every transaction with keys of at most 255
// bytes (reads carry no value).
func FuzzTxnCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeTxn(Txn{}))
	f.Add(EncodeTxn(Txn{
		Reads:  []Op{{Key: []byte("r12")}, {Key: []byte("r23")}},
		Writes: []Op{{Key: []byte("w12"), Value: make([]byte, 128)}},
	}))
	f.Add([]byte{255, 255, 1, 2, 3})
	f.Fuzz(func(t *testing.T, p []byte) {
		var tx Txn
		decodeTxnInto(EncodeTxn(Txn{
			Reads:  []Op{{Key: []byte("stale-r")}, {Key: []byte("stale-r2")}},
			Writes: []Op{{Key: []byte("stale-w"), Value: []byte("stale-v")}},
		}), &tx)
		if !decodeTxnInto(p, &tx) {
			if len(tx.Reads) != 0 || len(tx.Writes) != 0 {
				t.Fatalf("rejected input decoded to %+v", tx)
			}
			return
		}
		off := 0
		inside := func(name string, v []byte, lenBytes int) {
			off += lenBytes
			if cap(v) != len(v) {
				t.Fatalf("%s has len %d cap %d", name, len(v), cap(v))
			}
			if len(v) > 0 && &v[0] != &p[off] {
				t.Fatalf("%s is not input[%d:%d]", name, off, off+len(v))
			}
			off += len(v)
		}
		off += 2
		for _, op := range tx.Reads {
			inside("read key", op.Key, 1)
			if op.Value != nil {
				t.Fatalf("read %q carries a value", op.Key)
			}
		}
		off += 2
		for _, op := range tx.Writes {
			inside("write key", op.Key, 1)
			inside("write value", op.Value, 2)
		}
		enc := EncodeTxn(tx)
		if !bytes.Equal(enc, p[:off]) {
			t.Fatalf("EncodeTxn = %x, want the consumed input %x", enc, p[:off])
		}
		again, ok := decodeTxn(enc)
		if !ok || !sameOps(again.Reads, tx.Reads) || !sameOps(again.Writes, tx.Writes) {
			t.Fatalf("round trip of %+v = %+v, %v", tx, again, ok)
		}
	})
}

func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

func TestPartitionStable(t *testing.T) {
	k := []byte("some-key")
	p := Partition(k, 4)
	for i := 0; i < 10; i++ {
		if Partition(k, 4) != p {
			t.Fatal("partition not stable")
		}
	}
	if p < 0 || p >= 4 {
		t.Fatalf("partition %d out of range", p)
	}
	// Different keys spread across partitions.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[Partition([]byte(fmt.Sprintf("k%d", i)), 4)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("only %d partitions used", len(seen))
	}
}

func TestDecodeOutcome(t *testing.T) {
	out, vals := DecodeOutcome(nil)
	if out != 0 || vals != nil {
		t.Fatal("empty outcome")
	}
	out, vals = DecodeOutcome([]byte{byte(OutcomeCommitted)})
	if out != OutcomeCommitted || len(vals) != 0 {
		t.Fatalf("bare outcome: %d %v", out, vals)
	}
}
