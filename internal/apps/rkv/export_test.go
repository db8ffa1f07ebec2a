package rkv

// Hooks for the black-box tests.

// Misses counts the memtable reads that fell through to the SSTables.
func (mt *Memtable) Misses() uint64 { return mt.misses }
