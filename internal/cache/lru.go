// Package cache implements the private-cache and coherence-directory model of
// the paper (Sections 1 and 2.2).
//
// Each core has a private cache of size M words organized in blocks of B
// words, i.e. M/B block frames, managed with LRU replacement (which the
// paper notes suffices for its algorithms).  A write into a location of a
// shared block by core C invalidates the copy of that block in every other
// cache holding it; the next access by an invalidated core is a *block miss*.
// The directory tracks, per block, the set of caches holding a copy and a
// busy-until timestamp that serializes transfers of the same block, modelling
// the ping-ponging delay of false sharing: x interleaved writes by different
// cores can cost Ω(b·x) at every core accessing the block (Section 1).
package cache

// Set is a fully-associative LRU cache over block indices for one simulated
// core.  Entries may be present-but-invalid: the frame is still occupied (and
// still subject to LRU eviction) but an access to it is a coherence (block)
// miss rather than a hit.
type Set struct {
	capacity int // max resident blocks (M/B)
	frames   map[int64]*frame
	// LRU list: head = most recently used, tail = least recently used.
	head, tail *frame
}

type frame struct {
	block      int64
	valid      bool
	prev, next *frame
}

// NewSet returns an empty cache with room for capBlocks blocks.
func NewSet(capBlocks int) *Set {
	if capBlocks <= 0 {
		panic("cache: capacity must be positive")
	}
	return &Set{capacity: capBlocks, frames: make(map[int64]*frame, capBlocks)}
}

// Len returns the number of resident blocks (valid or invalid).
func (s *Set) Len() int { return len(s.frames) }

// Lookup classifies an access to block b without modifying the cache.
// It returns (present, valid).
func (s *Set) Lookup(b int64) (present, valid bool) {
	f, ok := s.frames[b]
	if !ok {
		return false, false
	}
	return true, f.valid
}

// Touch records an access to block b, which must already be resident and
// valid; it moves the block to the MRU position.
func (s *Set) Touch(b int64) {
	f := s.frames[b]
	if f == nil || !f.valid {
		panic("cache: Touch on non-resident or invalid block")
	}
	s.moveToFront(f)
}

// Insert brings block b into the cache at the MRU position, evicting the LRU
// block if the cache is full.  It returns the evicted block index and whether
// an eviction happened.  If b is already resident (e.g. present-but-invalid),
// the frame is revalidated in place.
func (s *Set) Insert(b int64) (evicted int64, didEvict bool) {
	if f, ok := s.frames[b]; ok {
		f.valid = true
		s.moveToFront(f)
		return 0, false
	}
	if len(s.frames) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.frames, lru.block)
		evicted, didEvict = lru.block, true
	}
	f := &frame{block: b, valid: true}
	s.frames[b] = f
	s.pushFront(f)
	return evicted, didEvict
}

// Invalidate marks block b invalid if resident.  The frame stays occupied:
// the next access is a block miss, matching the coherence protocol in
// Section 2.2.  Returns whether the block was resident and valid.
func (s *Set) Invalidate(b int64) bool {
	f, ok := s.frames[b]
	if !ok || !f.valid {
		return false
	}
	f.valid = false
	return true
}

// ResidentValid reports whether block b is resident and valid.
func (s *Set) ResidentValid(b int64) bool {
	f, ok := s.frames[b]
	return ok && f.valid
}

func (s *Set) pushFront(f *frame) {
	f.prev = nil
	f.next = s.head
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
}

func (s *Set) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

func (s *Set) moveToFront(f *frame) {
	if s.head == f {
		return
	}
	s.unlink(f)
	s.pushFront(f)
}
