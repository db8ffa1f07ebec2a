package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// buildSampleTrace fills a tracer the way the runtime does: groups per
// node, tracks per substrate, spans and instants in simulation order.
func buildSampleTrace(t *Tracer) {
	sk := t.Sink(0)
	g := t.Group("kv0")
	link := t.NewTrack(g, "link rx")
	core0 := t.NewTrack(g, "nic core 0")
	sched := t.NewTrack(g, "sched")
	g1 := t.Group("cli")
	tx := t.NewTrack(g1, "link tx")

	sk.Span(tx, "frame", 0, 410, Args{Req: 7, HasReq: true, Bytes: 512})
	sk.Span(link, "frame", 1300, 1710, Args{Req: 7, HasReq: true, Bytes: 512})
	sk.Span(core0, "kv-leader", 1800, 4200, Args{Req: 7, HasReq: true, Wait: 90})
	sk.Span(core0, "kv-leader", 4200, 6100, Args{Req: 8, HasReq: true})
	sk.Instant(sched, "downgrade kv-leader", 5000)
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer()
	buildSampleTrace(tr)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	st, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	if st.Spans != 4 || st.Instants != 1 {
		t.Fatalf("got %d spans %d instants, want 4/1", st.Spans, st.Instants)
	}
	if st.Processes != 2 {
		t.Fatalf("got %d processes, want 2", st.Processes)
	}
	for _, want := range []string{`"kv0"`, `"cli"`, `"nic core 0"`, `"req":7`, `"bytes":512`, `"wait_us":0.090`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() []byte {
		tr := NewTracer()
		buildSampleTrace(tr)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("identical tracer contents rendered differently")
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	bad := `{"traceEvents":[
		{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"n"}},
		{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}},
		{"name":"b","cat":"span","ph":"X","ts":50,"dur":1,"pid":1,"tid":1,"args":{}},
		{"name":"a","cat":"span","ph":"X","ts":10,"dur":1,"pid":1,"tid":1,"args":{}}
	]}`
	if _, err := ValidateChromeTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("out-of-order ts not rejected")
	}
	if _, err := ValidateChromeTrace(strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed JSON not rejected")
	}
	unnamed := `{"traceEvents":[{"name":"a","ph":"X","ts":1,"dur":1,"pid":9,"tid":1,"args":{}}]}`
	if _, err := ValidateChromeTrace(strings.NewReader(unnamed)); err == nil {
		t.Fatal("unnamed pid not rejected")
	}
}

// TestDisabledTracerZeroAlloc is the overhead guard the issue requires:
// the disabled (nil) tracer path must not allocate, ever — it is on the
// hot path of every simulated packet and actor execution.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	g := tr.Group("n")
	track := tr.NewTrack(g, "t")
	if g != noGroup || track != NoTrack {
		t.Fatalf("nil tracer registration: got %d/%d", g, track)
	}
	sk := tr.Sink(0)
	allocs := testing.AllocsPerRun(1000, func() {
		sk.Span(track, "x", 0, 10, Args{Req: 1, HasReq: true, Bytes: 64, Wait: 2})
		sk.Instant(track, "y", 5)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestDisabledCollectorSafe(t *testing.T) {
	var c *Collector
	c.Start()
	c.Snapshot()
	if c.Snapshots() != 0 {
		t.Fatal("nil collector recorded snapshots")
	}
	if err := c.WriteNDJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil collector write: %v", err)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *Tracer
	track, sk := tr.NewTrack(tr.Group("n"), "t"), tr.Sink(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Span(track, "x", sim.Time(i), sim.Time(i+10), Args{Req: uint64(i), HasReq: true})
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	track, sk := tr.NewTrack(tr.Group("n"), "t"), tr.Sink(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Span(track, "x", sim.Time(i), sim.Time(i+10), Args{Req: uint64(i), HasReq: true})
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean %v, want 50.5", m)
	}
	if h.Max() != 100 {
		t.Fatalf("max %v", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 70 {
		t.Fatalf("p50 %v implausible for uniform 1..100", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 90 || p99 > 100 {
		t.Fatalf("p99 %v implausible for uniform 1..100", p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	// Non-positive samples must not panic and land in the lowest bucket.
	h.Observe(0)
	h.Observe(-3)
	if h.Count() != 102 {
		t.Fatal("non-positive samples dropped")
	}
}

func TestCollectorSnapshotsAndNDJSON(t *testing.T) {
	eng := sim.NewEngine(1)
	col := NewCollector(eng, 10*sim.Microsecond)
	reg := col.Registry("node0")
	var completed uint64
	backlog := 3.5
	reg.Counter("completed", func() uint64 { return completed })
	reg.Gauge("backlog", func() float64 { return backlog })
	hist := reg.Histogram("lat_us")

	// Simulated activity for 50µs; the collector must sample alongside
	// and stop once the engine drains.
	for i := 1; i <= 5; i++ {
		i := i
		eng.At(sim.Time(i)*10*sim.Microsecond, func() {
			completed++
			hist.Observe(float64(i))
		})
	}
	col.Start()
	eng.Run()

	if col.Snapshots() < 5 {
		t.Fatalf("got %d snapshots, want >= 5", col.Snapshots())
	}
	col.Snapshot() // final end-state record
	var buf bytes.Buffer
	if err := col.WriteNDJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	st, err := ValidateMetricsNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}
	if st.Records != col.Snapshots() || st.Registries != 1 {
		t.Fatalf("stats %+v, want %d records / 1 registry", st, col.Snapshots())
	}
	if !strings.Contains(buf.String(), `"completed":5`) {
		t.Errorf("final record missing completed=5:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"lat_us":{"count":5`) {
		t.Errorf("histogram record missing:\n%s", buf.String())
	}
}

func TestCollectorDoesNotKeepEngineAlive(t *testing.T) {
	eng := sim.NewEngine(1)
	col := NewCollector(eng, sim.Microsecond)
	col.Registry("r").Gauge("g", func() float64 { return 0 })
	eng.At(5*sim.Microsecond, func() {})
	col.Start()
	done := make(chan struct{})
	go func() { eng.Run(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not drain with collector running")
	}
}
