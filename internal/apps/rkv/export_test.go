package rkv

// Hooks for the black-box tests.

// DelReq builds a delete request payload.
var DelReq = delReq

// List exposes the memtable's skip list.
func (mt *Memtable) List() *skipList { return mt.list }

// TotalBytes sums all SSTable levels.
func (s *SSTStore) TotalBytes() int {
	n := 0
	for _, runs := range s.Levels {
		n += levelBytes(runs)
	}
	return n
}
