package rta

// Matcher is an Aho–Corasick multi-pattern substring matcher: the
// filter worker's "pattern matching module" (§4 cites Cox's regexp
// notes; multi-pattern dictionary matching is the workhorse case and a
// DFA walk per byte is exactly the per-byte cost the model charges).
type Matcher struct {
	next []map[byte]int32 // goto function per state
	fail []int32
	out  []bool
	// patterns echoes the compiled dictionary.
	patterns []string
}

// newMatcher compiles the dictionary. Empty patterns are ignored.
func newMatcher(patterns []string) *Matcher {
	m := &Matcher{}
	m.next = append(m.next, map[byte]int32{}) // root
	m.fail = append(m.fail, 0)
	m.out = append(m.out, false)
	for _, p := range patterns {
		if p == "" {
			continue
		}
		m.patterns = append(m.patterns, p)
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			nxt, ok := m.next[s][c]
			if !ok {
				nxt = int32(len(m.next))
				m.next = append(m.next, map[byte]int32{})
				m.fail = append(m.fail, 0)
				m.out = append(m.out, false)
				m.next[s][c] = nxt
			}
			s = nxt
		}
		m.out[s] = true
	}
	// BFS to build failure links.
	var queue []int32
	for _, s := range m.next[0] {
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c, v := range m.next[u] {
			queue = append(queue, v)
			f := m.fail[u]
			for {
				if w, ok := m.next[f][c]; ok && w != v {
					m.fail[v] = w
					break
				}
				if f == 0 {
					m.fail[v] = 0
					break
				}
				f = m.fail[f]
			}
			if m.out[m.fail[v]] {
				m.out[v] = true
			}
		}
	}
	return m
}

// step advances the automaton by one byte.
func (m *Matcher) step(s int32, c byte) int32 {
	for {
		if nxt, ok := m.next[s][c]; ok {
			return nxt
		}
		if s == 0 {
			return 0
		}
		s = m.fail[s]
	}
}

// match reports whether any pattern occurs in text.
func (m *Matcher) match(text string) bool {
	if len(m.patterns) == 0 {
		return false
	}
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = m.step(s, text[i])
		if m.out[s] {
			return true
		}
	}
	return false
}
