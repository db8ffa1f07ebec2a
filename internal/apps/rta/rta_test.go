package rta

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/actor"
	"repro/internal/sim"
)

// fakeCtx is a minimal actor.Ctx for unit-testing handlers in isolation.
type fakeCtx struct {
	sent    []actor.Msg
	replies []actor.Msg
}

func (f *fakeCtx) Now() sim.Time                                { return 0 }
func (f *fakeCtx) Send(dst actor.ID, m actor.Msg)               { m.Dst = dst; f.sent = append(f.sent, m) }
func (f *fakeCtx) Reply(m actor.Msg)                            { f.replies = append(f.replies, m) }
func (f *fakeCtx) Alloc(size int) (uint64, error)               { return 1, nil }
func (f *fakeCtx) Free(obj uint64) error                        { return nil }
func (f *fakeCtx) ObjRead(o uint64, off, n int) ([]byte, error) { return make([]byte, n), nil }
func (f *fakeCtx) ObjWrite(o uint64, off int, p []byte) error   { return nil }
func (f *fakeCtx) ObjMigrate(o uint64) (int, error)             { return 0, nil }

func (f *fakeCtx) Accel(name string, b, bs int) (sim.Time, bool) { return 0, false }

func TestMatcherBasics(t *testing.T) {
	m := newMatcher([]string{"spam", "junk"})
	cases := map[string]bool{
		"this is spam": true,
		"junkmail":     true,
		"sp am":        false,
		"clean text":   false,
		"jjunkk":       true,
		"spa":          false,
		"sspam":        true,
	}
	for text, want := range cases {
		if got := m.match(text); got != want {
			t.Errorf("Match(%q) = %v, want %v", text, got, want)
		}
	}
}

func TestMatcherOverlappingPatterns(t *testing.T) {
	m := newMatcher([]string{"he", "she", "hers"})
	for _, text := range []string{"she", "hers", "ushers", "xhey"} {
		if !m.match(text) {
			t.Errorf("Match(%q) = false", text)
		}
	}
	if m.match("hr") || m.match("es") {
		t.Error("false positives")
	}
}

func TestMatcherEmptyDictionary(t *testing.T) {
	m := newMatcher(nil)
	if m.match("anything") {
		t.Fatal("empty dictionary matched")
	}
	m2 := newMatcher([]string{""})
	if m2.match("x") {
		t.Fatal("empty pattern matched")
	}
}

// Property: Matcher agrees with strings.Contains for single patterns.
func TestMatcherAgreesWithContains(t *testing.T) {
	f := func(pat, text string) bool {
		if pat == "" {
			return true
		}
		// Constrain to small byte alphabets for meaningful overlap.
		norm := func(s string) string {
			b := []byte(s)
			for i := range b {
				b[i] = 'a' + b[i]%4
			}
			return string(b)
		}
		p, x := norm(pat), norm(text)
		if len(p) > 6 {
			p = p[:6]
		}
		m := newMatcher([]string{p})
		return m.match(x) == strings.Contains(x, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	in := []string{"alpha", "beta", "gamma"}
	out := decodeTuples(EncodeTuples(in))
	if len(out) != 3 || out[0] != "alpha" || out[2] != "gamma" {
		t.Fatalf("round trip = %v", out)
	}
	if decodeTuples(nil) != nil {
		t.Fatal("nil decode should be nil")
	}
}

func TestCountsCodecRoundTrip(t *testing.T) {
	in := map[string]uint32{"a": 1, "bb": 70000, "ccc": 3}
	out := decodeCounts(encodeCounts(in))
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for k, v := range in {
		if out[k] != v {
			t.Fatalf("%q: %d != %d", k, out[k], v)
		}
	}
}

func TestFilterDropsMatching(t *testing.T) {
	topo := Topology{Counter: 2}
	a, _ := NewFilter(1, topo, []string{"bad"})
	ctx := &fakeCtx{}
	a.OnMessage(ctx, actor.Msg{Kind: KindTuples, Data: EncodeTuples([]string{"good", "badword", "fine"})})
	if len(ctx.sent) != 1 {
		t.Fatalf("forwarded %d messages", len(ctx.sent))
	}
	kept := decodeTuples(ctx.sent[0].Data)
	if len(kept) != 2 || kept[0] != "good" || kept[1] != "fine" {
		t.Fatalf("kept %v", kept)
	}
	if ctx.sent[0].Dst != 2 {
		t.Fatal("not forwarded to counter")
	}
}

func TestFilterAcksFullyFilteredBatch(t *testing.T) {
	a, _ := NewFilter(1, Topology{Counter: 2}, []string{"x"})
	ctx := &fakeCtx{}
	replied := false
	a.OnMessage(ctx, actor.Msg{
		Data:   EncodeTuples([]string{"xx", "x1"}),
		Origin: "cli",
		Reply:  func(actor.Msg) { replied = true },
	})
	if len(ctx.sent) != 0 {
		t.Fatal("empty batch forwarded")
	}
	if len(ctx.replies) != 1 {
		t.Fatal("client not acknowledged")
	}
	_ = replied
}

func TestFilterCostScalesWithBytes(t *testing.T) {
	a, _ := NewFilter(1, Topology{Counter: 2}, []string{"q"})
	ctx := &fakeCtx{}
	small := a.OnMessage(ctx, actor.Msg{Data: EncodeTuples([]string{"ab"})})
	big := a.OnMessage(ctx, actor.Msg{Data: EncodeTuples([]string{strings.Repeat("ab", 500)})})
	if big <= small {
		t.Fatal("cost should grow with scanned bytes")
	}
}

func TestCounterWindowAndEmit(t *testing.T) {
	topo := Topology{Ranker: 3}
	a, st := NewCounter(2, topo, CounterConfig{WindowSlots: 2, EmitEvery: 2})
	ctx := &fakeCtx{}
	a.OnMessage(ctx, actor.Msg{Data: EncodeTuples([]string{"x", "x", "y"})})
	if len(ctx.sent) != 0 {
		t.Fatal("emitted before EmitEvery batches")
	}
	a.OnMessage(ctx, actor.Msg{Data: EncodeTuples([]string{"x"})})
	if len(ctx.sent) != 1 || ctx.sent[0].Kind != kindEmit {
		t.Fatalf("emit not sent: %v", ctx.sent)
	}
	counts := decodeCounts(ctx.sent[0].Data)
	if counts["x"] != 3 || counts["y"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	_ = st
}

func TestCounterSlidingWindowExpiry(t *testing.T) {
	st := newCounterState(CounterConfig{WindowSlots: 2, EmitEvery: 100})
	st.add("k")
	st.advance()
	st.add("k")
	if st.totals()["k"] != 2 {
		t.Fatalf("window should hold both slots: %v", st.totals())
	}
	st.advance() // wraps: expires the first slot
	if st.totals()["k"] != 1 {
		t.Fatalf("expired slot still counted: %v", st.totals())
	}
}

func TestRankerTopNOrdering(t *testing.T) {
	a, st := NewRanker(3, Topology{Aggregator: 4}, 3)
	ctx := &fakeCtx{}
	a.OnMessage(ctx, actor.Msg{Kind: kindEmit, Data: encodeCounts(map[string]uint32{
		"a": 5, "b": 9, "c": 1, "d": 7, "e": 3,
	})})
	if len(ctx.sent) != 1 || ctx.sent[0].Kind != kindTopN {
		t.Fatalf("topn not forwarded: %v", ctx.sent)
	}
	top := decodeCounts(ctx.sent[0].Data)
	if len(top) != 3 {
		t.Fatalf("topN size = %d", len(top))
	}
	for _, k := range []string{"b", "d", "a"} {
		if _, ok := top[k]; !ok {
			t.Fatalf("top3 missing %q: %v", k, top)
		}
	}
	_ = st
}

func TestRankerMergeKeepsMaxima(t *testing.T) {
	st := newRankerState(2)
	st.merge(map[string]uint32{"a": 5})
	top := st.merge(map[string]uint32{"a": 3, "b": 4})
	if top[0].Token != "a" || top[0].Count != 5 {
		t.Fatalf("merge lost maximum: %v", top)
	}
}

func TestSortCostMonotone(t *testing.T) {
	if sortCost(10) >= sortCost(100) || sortCost(100) >= sortCost(1000) {
		t.Fatal("sort cost not monotone")
	}
	// Calibration: ≈128 elements should land near Table 3's 34µs.
	c := sortCost(128)
	if c < 25*sim.Microsecond || c > 45*sim.Microsecond {
		t.Fatalf("sortCost(128) = %v, want ≈34µs", c)
	}
}

func TestAggregatorObservesUpdates(t *testing.T) {
	var last []Entry
	a, _ := NewAggregator(4, 2, func(top []Entry) { last = top })
	ctx := &fakeCtx{}
	a.OnMessage(ctx, actor.Msg{Data: encodeCounts(map[string]uint32{"z": 10, "y": 20})})
	if len(last) != 2 || last[0].Token != "y" {
		t.Fatalf("aggregated view = %v", last)
	}
}
