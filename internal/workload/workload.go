// Package workload provides the load generators of the evaluation: a
// pktgen-style client that attaches to the simulated network and issues
// requests to actors in open loop (Poisson arrivals, as in §5.4) or
// closed loop (as the DPDK workload generator of §5.1), plus the key
// and service-time distributions the paper uses: Zipfian keys with skew
// 0.99 over 1M keys and exponentially distributed execution costs.
package workload

import (
	"math"

	"repro/internal/actor"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Client is a load generator attached to the cluster's network.
type Client struct {
	Name    string
	cluster *core.Cluster
	eng     *sim.Engine
	net     *netsim.Network
	part    int
	qos     QoSHook
	// free recycles the call records of requests without a timeout.
	free sim.FreeList[call]

	// Lat collects end-to-end response latencies in microseconds.
	Lat *stats.Sample
	// Sent/Received count requests and responses; Retried counts
	// timeout-driven re-sends.
	//
	// Accounting contract: every request handed to Send ends up in
	// exactly one of two ledgers. A request the QoS hook refuses is
	// shed at the edge — Rejected increments, OnGiveUp fires, and
	// nothing else happens: no Sent, no latency sample, no retries. A
	// request that passes admission increments Sent (once, whatever the
	// retry count) and then either lands (Received, Lat) or is lost in
	// flight (OnGiveUp after the final timeout). Completion-style
	// ratios must therefore use Received/Sent for in-flight loss and
	// report Rejected separately as edge shed; Offered() is the
	// everything-attempted denominator.
	Sent     uint64
	Received uint64
	Retried  uint64
	// Rejected counts requests refused by the QoS admission hook before
	// reaching the wire (they are not counted in Sent).
	Rejected uint64
}

// Offered returns every request the workload attempted: admitted sends
// plus edge-rejected ones.
func (cl *Client) Offered() uint64 { return cl.Sent + cl.Rejected }

// QoSHook lets a multi-tenant QoS layer (internal/qos) gate and observe
// client traffic without this package importing it. Both methods run on
// the client's engine.
type QoSHook interface {
	// Admit charges one request against the tenant's budget at virtual
	// time now; returning false rejects the send.
	Admit(tenant uint16, class uint8, now sim.Time) bool
	// Latency observes one end-to-end response latency in microseconds.
	Latency(tenant uint16, class uint8, us float64)
}

// NewClient attaches a client node with the given link speed.
func NewClient(c *core.Cluster, name string, gbps float64) *Client {
	return NewClientAt(c, name, gbps, 0)
}

// NewClientAt is NewClient pinning the client's port to an engine
// partition of the cluster — typically the partition of the server node
// it drives, so request generation runs concurrently with the rest of
// the topology. An out-of-range partition panics (netsim.EngineAt).
func NewClientAt(c *core.Cluster, name string, gbps float64, part int) *Client {
	cl := &Client{Name: name, cluster: c, eng: c.Net.EngineAt(part), net: c.Net, part: part, Lat: stats.NewSample()}
	c.Net.AttachOn(name, gbps, netsim.HandlerFunc(cl.deliver), part)
	return cl
}

// Eng returns the engine the client's events run on (the partition
// engine for clients attached with NewClientAt).
func (cl *Client) Eng() *sim.Engine { return cl.eng }

// Part returns the engine partition the client was attached to.
func (cl *Client) Part() int { return cl.part }

// SetQoS installs the admission/latency hook consulted on every Send
// (nil removes it). Install before driving load.
func (cl *Client) SetQoS(h QoSHook) { cl.qos = h }

func (cl *Client) deliver(pkt *netsim.Packet) {
	if env, ok := pkt.Payload.(core.RespEnvelope); ok {
		env.Fn(env.Msg)
	}
}

// Request describes one client request.
type Request struct {
	Node string   // destination server node
	Dst  actor.ID // destination actor
	Kind actor.Kind
	Data []byte
	// Size is the request packet size on the wire (the paper's "packet
	// size"); defaults to max(64, len(Data)+48).
	Size   int
	FlowID uint64
	// OnResp, if set, observes the application response.
	OnResp func(resp actor.Msg)
	// Timeout re-sends the request if no response arrives in time
	// (0 disables). Retries bounds re-sends; the response callback and
	// latency sample fire once, for whichever attempt lands first.
	Timeout sim.Time
	Retries int
	// Backoff multiplies the timeout after every unanswered attempt
	// (capped exponential backoff; values ≤ 1 keep the interval fixed).
	Backoff float64
	// MaxTimeout caps the grown interval. 0 falls back to
	// MaxUncappedTimeout — exponential growth must saturate somewhere,
	// or enough retries overflow sim.Time into a negative timer wait.
	MaxTimeout sim.Time
	// OnGiveUp, if set, fires when the final attempt also times out —
	// the request is then lost from the client's point of view.
	OnGiveUp func()
	// Tenant and Class tag the request for multi-tenant QoS: Tenant
	// indexes the deployment's tenant table for token-bucket admission,
	// Class (a qos.Class value) picks the server-side priority lane.
	// Zero values reproduce the legacy untagged behavior.
	Tenant uint16
	Class  uint8

	// next is the closed loop's continuation: it runs after OnResp and
	// issues the loop's next request. One per loop, not one per request;
	// it rides in the Request so that a pluggable send path (a Batcher's
	// Add) carries it along by passing the Request on unchanged.
	next func()
}

// MaxUncappedTimeout bounds exponential backoff growth when a Request
// sets no MaxTimeout: doubling a microsecond-scale timeout ~60 times
// overflows sim.Time (int64 nanoseconds) into a negative timer wait,
// which the engine rejects as an event in the past. Ten seconds is far
// past any simulated run window, so saturating there preserves the
// "effectively unbounded" intent without the overflow.
const MaxUncappedTimeout = 10 * sim.Second

// GrowTimeout applies one unanswered attempt's backoff to a timeout:
// t × backoff, saturating at maxTimeout (MaxUncappedTimeout when
// maxTimeout ≤ 0); backoff ≤ 1 keeps t. The product is compared in
// float space: converting an out-of-range float to sim.Time is
// implementation-defined, so the clamp comes before the conversion.
func GrowTimeout(t sim.Time, backoff float64, maxTimeout sim.Time) sim.Time {
	if backoff <= 1 {
		return t
	}
	if maxTimeout <= 0 {
		maxTimeout = MaxUncappedTimeout
	}
	if next := float64(t) * backoff; next < float64(maxTimeout) {
		return sim.Time(next)
	}
	return maxTimeout
}

// Send issues one request now. The response latency is recorded in Lat
// when the reply lands. With Timeout set, lost requests are re-sent up
// to Retries times; duplicate responses (a late original racing a
// retry) are counted once.
func (cl *Client) Send(r Request) { cl.send(r, nil) }

// send is Send with a pluggable first transmission: when stage is
// non-nil the initial attempt is handed to it (a Batcher parks it in a
// message train) instead of going on the wire; timeout-driven retries
// always re-send as plain packets, so retry latency is never inflated
// by a second batching window.
func (cl *Client) send(r Request, stage func(m actor.Msg, size int)) {
	// Admission control happens once, at initial send time; timeout
	// retries of an admitted request are recovery traffic and are not
	// re-charged.
	if cl.qos != nil && !cl.qos.Admit(r.Tenant, r.Class, cl.eng.Now()) {
		cl.Rejected++
		if r.OnGiveUp != nil {
			r.OnGiveUp()
		}
		return
	}
	size := r.Size
	if size == 0 {
		size = len(r.Data) + 48
	}
	if size < 64 {
		size = 64
	}
	cl.Sent++
	c := cl.takeCall(r.Timeout > 0)
	c.r, c.size, c.sentAt, c.timeout = r, size, cl.eng.Now(), r.Timeout
	c.fire(stage)
}

// call is one admitted request from first transmission to its response
// (or to giving up): everything its reply continuation and its retry
// timers share, in one record, with the continuations bound once when
// the record is made.
//
// A request without a timeout has exactly one transmission and at most
// one answer, so its record is released to the client's free list at the
// reply and the next Send reuses it. A request with a timeout is never
// pooled: a late duplicate answer or a pending timer may still hold the
// record long after the first answer, and only its done latch tells them
// the request is over.
type call struct {
	cl      *Client
	r       Request
	size    int
	sentAt  sim.Time
	done    bool
	attempt int
	timeout sim.Time // the next attempt's wait; grows with r.Backoff
	// poisoned marks a record released under the invariant checker: it
	// is never reused, and an answer landing on it is a violation.
	poisoned bool
	replyFn  func(actor.Msg)
	// retryFn and giveUpFn are bound only on records of requests with a
	// timeout; nothing else arms a timer.
	retryFn, giveUpFn func()
	// first is the packet of the first transmission. A retry cannot
	// reuse it — the original may still be queued on a link — and gets
	// its own.
	first netsim.Packet
}

// maxFreeCalls bounds a client's free list of call records: a closed
// loop needs its depth, and a burst past the cap is left to the GC.
const maxFreeCalls = 256

// takeCall readies a call record: a recycled one for a request without
// a timeout when the free list has one, a new one otherwise.
func (cl *Client) takeCall(timed bool) *call {
	if !timed {
		if c := cl.free.Take(); c != nil {
			c.done = false
			return c
		}
	}
	c := &call{cl: cl}
	c.replyFn = c.reply
	if timed {
		c.retryFn, c.giveUpFn = c.retry, c.giveUp
	}
	return c
}

// release returns an untimed call's record at its reply: to the free
// list, or — under the invariant checker — nowhere, poisoned.
func (cl *Client) release(c *call) {
	if c.r.Timeout > 0 {
		return
	}
	c.r = Request{}
	c.first.Payload = nil
	if cl.checker() != nil {
		c.poisoned = true
		return
	}
	cl.free.Put(c, maxFreeCalls)
}

// checker returns the invariant checker of the client's partition, nil
// when checking is off. Looked up on use: checkers may be attached after
// the client.
func (cl *Client) checker() *invariant.Checker { return cl.cluster.CheckerAt(cl.part) }

// reply is the Reply continuation every attempt's message carries.
func (c *call) reply(resp actor.Msg) {
	cl := c.cl
	if c.done {
		// A duplicate response after a retry, or after giving up. On an
		// untimed call there is no such thing: the server answered one
		// request twice, and without the checker the second answer
		// would complete whichever request recycled the record.
		if c.poisoned {
			cl.checker().UseAfterRelease("call record", cl.Name)
		}
		return
	}
	c.done = true
	cl.Received++
	us := (cl.eng.Now() - c.sentAt).Micros()
	cl.Lat.Observe(us)
	if cl.qos != nil {
		cl.qos.Latency(c.r.Tenant, c.r.Class, us)
	}
	// Release before the callbacks: the next request they issue finds the
	// record on the list.
	onResp, next := c.r.OnResp, c.r.next
	cl.release(c)
	if onResp != nil {
		onResp(resp)
	}
	if next != nil {
		next()
	}
}

// fire transmits one attempt — through stage when the caller parks the
// first one in a message train — and, for requests with a timeout, arms
// the timer that retries or gives up.
func (c *call) fire(stage func(m actor.Msg, size int)) {
	cl, r := c.cl, &c.r
	m := actor.Msg{
		Kind:   r.Kind,
		Dst:    r.Dst,
		Data:   r.Data,
		FlowID: r.FlowID,
		Origin: cl.Name,
		Reply:  c.replyFn,
		Class:  r.Class,
	}
	switch {
	case stage != nil:
		stage(m, c.size)
	case c.attempt == 0:
		c.first = netsim.Packet{Src: cl.Name, Dst: r.Node, Size: c.size, FlowID: m.FlowID, Payload: m}
		cl.net.Send(&c.first)
	default:
		cl.emit(r.Node, m, c.size)
	}
	if r.Timeout <= 0 {
		return
	}
	wait := c.timeout
	c.timeout = GrowTimeout(c.timeout, r.Backoff, r.MaxTimeout)
	if c.attempt < r.Retries {
		c.attempt++
		cl.eng.After(wait, c.retryFn)
	} else if r.OnGiveUp != nil {
		cl.eng.After(wait, c.giveUpFn)
	}
}

func (c *call) retry() {
	if !c.done {
		c.cl.Retried++
		c.fire(nil)
	}
}

func (c *call) giveUp() {
	if !c.done {
		c.done = true // late responses are ignored once given up
		c.r.OnGiveUp()
	}
}

// emit puts one prepared message on the wire as its own packet.
func (cl *Client) emit(node string, m actor.Msg, size int) {
	cl.net.Send(&netsim.Packet{
		Src: cl.Name, Dst: node, Size: size,
		FlowID:  m.FlowID,
		Payload: m,
	})
}

// OpenLoop drives requests with Poisson interarrivals at the given rate
// (requests/sec) for the duration, calling gen for each request.
func (cl *Client) OpenLoop(rate float64, dur sim.Time, gen func(i uint64) Request) {
	cl.OpenLoopVia(rate, dur, gen, cl.Send)
}

// OpenLoopVia is OpenLoop with a pluggable send path — pass a Batcher's
// Add to coalesce same-shard requests into message trains.
func (cl *Client) OpenLoopVia(rate float64, dur sim.Time, gen func(i uint64) Request, send func(Request)) {
	if rate <= 0 {
		return
	}
	var i uint64
	var tick func()
	deadline := cl.eng.Now() + dur
	tick = func() {
		if cl.eng.Now() >= deadline {
			return
		}
		send(gen(i))
		i++
		gap := sim.Time(cl.eng.Rand().Exp(1e9 / rate))
		if gap < 1 {
			gap = 1
		}
		cl.eng.After(gap, tick)
	}
	cl.eng.Defer(tick)
}

// ClosedLoop keeps `depth` requests outstanding until the deadline.
func (cl *Client) ClosedLoop(depth int, dur sim.Time, gen func(i uint64) Request) {
	cl.ClosedLoopVia(depth, dur, gen, cl.Send)
}

// ClosedLoopVia is ClosedLoop with a pluggable send path — pass a
// Batcher's Add to coalesce same-shard requests into message trains.
// The send path must hand on the Request it is given (it may change its
// exported fields): the loop's continuation travels in it.
func (cl *Client) ClosedLoopVia(depth int, dur sim.Time, gen func(i uint64) Request, send func(Request)) {
	deadline := cl.eng.Now() + dur
	var i uint64
	var issue func()
	issue = func() {
		if cl.eng.Now() >= deadline {
			return
		}
		r := gen(i)
		i++
		r.next = issue
		send(r)
	}
	for k := 0; k < depth; k++ {
		cl.eng.Defer(issue)
	}
}

// Zipf generates Zipf-distributed values in [0, n) with the given skew
// (θ), using the Gray et al. constant-time algorithm as in YCSB. The
// paper's RKV workload uses n = 1M, θ = 0.99.
type Zipf struct {
	rnd   *sim.Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	head2 float64 // 1 + 0.5^θ: uz below it draws key 1
}

// eulerGamma is the Euler–Mascheroni constant, used by the harmonic
// (θ=1) inverse CDF: H_k ≈ ln k + γ.
const eulerGamma = 0.5772156649015329

// NewZipf builds a generator. It precomputes ζ(n, θ) once. n must be at
// least 2 and θ in [0, 1]: outside that range the Gray et al. rejection
// constants are ±Inf/NaN and every draw silently collapses onto a
// handful of keys, so the constructor panics instead. θ=1 — where
// alpha = 1/(1-θ) is singular — takes the harmonic-case branch in Next.
func NewZipf(rnd *sim.Rand, n uint64, theta float64) *Zipf {
	if n < 2 {
		panic("workload: Zipf needs n >= 2 keys")
	}
	if theta < 0 || theta > 1 {
		panic("workload: Zipf skew must be in [0, 1]")
	}
	z := &Zipf{rnd: rnd, n: n, theta: theta, head2: 1 + math.Pow(0.5, theta)}
	z.zetan = zeta(n, theta)
	if theta == 1 {
		return z // alpha/eta unused on the harmonic branch
	}
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.rnd.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.head2 {
		return 1
	}
	var v uint64
	if z.theta == 1 {
		// Harmonic case: invert H_k = u·H_n via H_k ≈ ln k + γ, i.e.
		// k ≈ exp(u·ζ(n,1) − γ). The two head buckets above are exact.
		v = uint64(math.Exp(uz - eulerGamma))
	} else {
		v = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Exponential draws exponentially distributed service times with mean
// M; Figure 16 jitters per-request execution costs with it.
type Exponential struct {
	R *sim.Rand
	M sim.Time
}

// Draw returns one service time.
func (e Exponential) Draw() sim.Time {
	return sim.Time(e.R.Exp(float64(e.M)))
}
