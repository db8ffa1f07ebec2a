package microbench

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// --- Router: longest-prefix-match trie ---------------------------------

// LPMTrie is a binary trie over IPv4 prefixes (the paper's Router row).
type LPMTrie struct {
	root *trieNode
	n    int
}

type trieNode struct {
	child   [2]*trieNode
	hasHop  bool
	nextHop uint32
}

// NewLPMTrie returns an empty routing table.
func NewLPMTrie() *LPMTrie { return &LPMTrie{root: &trieNode{}} }

// insert installs a prefix of the given length with a next hop.
func (t *LPMTrie) insert(prefix uint32, length int, nextHop uint32) {
	n := t.root
	for i := 0; i < length; i++ {
		b := (prefix >> (31 - i)) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	if !n.hasHop {
		t.n++
	}
	n.hasHop = true
	n.nextHop = nextHop
}

// Lookup returns the longest-prefix-match next hop.
func (t *LPMTrie) Lookup(addr uint32) (uint32, bool) {
	n := t.root
	var best uint32
	found := false
	for i := 0; i < 32 && n != nil; i++ {
		if n.hasHop {
			best, found = n.nextHop, true
		}
		b := (addr >> (31 - i)) & 1
		n = n.child[b]
	}
	if n != nil && n.hasHop {
		best, found = n.nextHop, true
	}
	return best, found
}

// Len reports installed prefixes.
func (t *LPMTrie) Len() int { return t.n }

// Name implements Workload.
func (t *LPMTrie) Name() string { return "Router" }

// Process implements Workload: route the destination IP at offset 4.
func (t *LPMTrie) Process(pkt []byte) uint64 {
	if len(pkt) < 8 {
		return 0
	}
	hop, ok := t.Lookup(binary.LittleEndian.Uint32(pkt[4:]))
	if !ok {
		return 0
	}
	return uint64(hop)
}

// --- Load balancer: Maglev hashing --------------------------------------

// Maglev implements Google's Maglev consistent-hashing lookup table
// (the paper's Load balancer row, over a permutation table).
type Maglev struct {
	backends []string
	table    []int
	m        int
}

// NewMaglev builds the permutation-filled lookup table. tableSize
// should be a prime larger than backends (Maglev uses 65537; tests use
// smaller primes).
func NewMaglev(backends []string, tableSize int) *Maglev {
	mg := &Maglev{backends: backends, m: tableSize}
	if len(backends) == 0 {
		mg.table = make([]int, tableSize)
		for i := range mg.table {
			mg.table[i] = -1
		}
		return mg
	}
	offset := make([]int, len(backends))
	skip := make([]int, len(backends))
	for i, b := range backends {
		h1 := fnv.New64a()
		h1.Write([]byte(b))
		offset[i] = int(h1.Sum64() % uint64(tableSize))
		h2 := fnv.New64()
		h2.Write([]byte(b))
		skip[i] = int(h2.Sum64()%uint64(tableSize-1)) + 1
	}
	next := make([]int, len(backends))
	table := make([]int, tableSize)
	for i := range table {
		table[i] = -1
	}
	filled := 0
	for filled < tableSize {
		for i := range backends {
			c := (offset[i] + next[i]*skip[i]) % tableSize
			for table[c] >= 0 {
				next[i]++
				c = (offset[i] + next[i]*skip[i]) % tableSize
			}
			table[c] = i
			next[i]++
			filled++
			if filled == tableSize {
				break
			}
		}
	}
	mg.table = table
	return mg
}

// Pick maps a flow hash to a backend.
func (m *Maglev) Pick(flow uint64) (string, bool) {
	i := m.table[flow%uint64(m.m)]
	if i < 0 {
		return "", false
	}
	return m.backends[i], true
}

// spread returns per-backend shares of the table (for balance checks).
func (m *Maglev) spread() map[string]int {
	out := map[string]int{}
	for _, i := range m.table {
		if i >= 0 {
			out[m.backends[i]]++
		}
	}
	return out
}

// Name implements Workload.
func (m *Maglev) Name() string { return "Load balancer" }

// Process implements Workload: pick a backend for the flow hash.
func (m *Maglev) Process(pkt []byte) uint64 {
	h := fnv.New64a()
	if len(pkt) > 13 {
		pkt = pkt[:13]
	}
	h.Write(pkt)
	if _, ok := m.Pick(h.Sum64()); ok {
		return 1
	}
	return 0
}

// --- Packet scheduler: pFabric over a BST --------------------------------

// PFabric schedules packets by smallest remaining flow size using an
// unbalanced BST keyed on priority (remaining bytes), as the paper's
// Packet scheduler row (BST tree, low IPC / high MPKI).
type PFabric struct {
	root *pfNode
	size int
}

type pfNode struct {
	prio        uint32
	left, right *pfNode
	pkts        []uint64
}

// NewPFabric returns an empty scheduler.
func NewPFabric() *PFabric { return &PFabric{} }

// Enqueue inserts a packet with the flow's remaining size as priority.
func (p *PFabric) Enqueue(prio uint32, pkt uint64) {
	p.size++
	n := &p.root
	for *n != nil {
		if prio < (*n).prio {
			n = &(*n).left
		} else if prio > (*n).prio {
			n = &(*n).right
		} else {
			(*n).pkts = append((*n).pkts, pkt)
			return
		}
	}
	*n = &pfNode{prio: prio, pkts: []uint64{pkt}}
}

// Dequeue removes the packet with the smallest priority (SRPT).
func (p *PFabric) Dequeue() (uint64, bool) {
	if p.root == nil {
		return 0, false
	}
	parent := &p.root
	n := p.root
	for n.left != nil {
		parent = &n.left
		n = n.left
	}
	pkt := n.pkts[0]
	n.pkts = n.pkts[1:]
	p.size--
	if len(n.pkts) == 0 {
		*parent = n.right
	}
	return pkt, true
}

// Len reports queued packets.
func (p *PFabric) Len() int { return p.size }

// Name implements Workload.
func (p *PFabric) Name() string { return "Packet scheduler" }

// Process implements Workload: enqueue then dequeue one packet.
func (p *PFabric) Process(pkt []byte) uint64 {
	prio := uint32(len(pkt))
	if len(pkt) >= 4 {
		prio = binary.LittleEndian.Uint32(pkt)
	}
	p.Enqueue(prio, uint64(prio))
	v, _ := p.Dequeue()
	return v
}

// --- Flow classifier: naive Bayes ----------------------------------------

// Bayes is a naive Bayes classifier over discretized packet features
// (the paper's Flow classifier row cites a naive Bayes service
// classifier; 2-D probability array, heavily memory-bound).
type Bayes struct {
	classes  int
	features int
	bins     int
	// counts[c][f*bins+b] with Laplace smoothing.
	counts [][]float64
	prior  []float64
	total  float64
}

// NewBayes builds a classifier with the given dimensions.
func NewBayes(classes, features, bins int) *Bayes {
	b := &Bayes{classes: classes, features: features, bins: bins}
	b.counts = make([][]float64, classes)
	for c := range b.counts {
		b.counts[c] = make([]float64, features*bins)
	}
	b.prior = make([]float64, classes)
	return b
}

// train adds one observation.
func (b *Bayes) train(class int, features []int) {
	b.prior[class]++
	b.total++
	for f, v := range features {
		if f >= b.features {
			break
		}
		b.counts[class][f*b.bins+v%b.bins]++
	}
}

// Classify returns the most probable class.
func (b *Bayes) Classify(features []int) int {
	best, bestLL := 0, math.Inf(-1)
	for c := 0; c < b.classes; c++ {
		ll := math.Log((b.prior[c] + 1) / (b.total + float64(b.classes)))
		for f, v := range features {
			if f >= b.features {
				break
			}
			cnt := b.counts[c][f*b.bins+v%b.bins]
			ll += math.Log((cnt + 1) / (b.prior[c] + float64(b.bins)))
		}
		if ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// Name implements Workload.
func (b *Bayes) Name() string { return "Flow classifier" }

// Process implements Workload: classify byte-features of the packet.
func (b *Bayes) Process(pkt []byte) uint64 {
	feats := make([]int, 0, b.features)
	for i := 0; i < len(pkt) && len(feats) < b.features; i += 8 {
		feats = append(feats, int(pkt[i]))
	}
	return uint64(b.Classify(feats))
}

// --- Packet replication: chain replication --------------------------------

// ChainRep forwards writes down a chain of replicas (linked list); the
// paper's Packet replication row.
type ChainRep struct {
	chain []string
	// Acked[i] counts packets acknowledged by replica i.
	Acked []uint64
}

// NewChainRep builds a chain.
func NewChainRep(replicas []string) *ChainRep {
	return &ChainRep{chain: replicas, Acked: make([]uint64, len(replicas))}
}

// Replicate walks the chain head→tail and returns the tail's index
// (the commit point in chain replication).
func (c *ChainRep) Replicate(pkt []byte) int {
	for i := range c.chain {
		c.Acked[i]++
	}
	return len(c.chain) - 1
}

// Name implements Workload.
func (c *ChainRep) Name() string { return "Packet replication" }

// Process implements Workload.
func (c *ChainRep) Process(pkt []byte) uint64 {
	return uint64(c.Replicate(pkt))
}
