// Package cache implements the BeSS cache and its replacement machinery
// (paper §4.2).
//
// BeSS cannot run the textbook clock algorithm because, under the memory
// mapping architecture, the cache manager does not see which slots were
// accessed recently. Instead the clock is driven by virtual frame states:
// each frame is invalid (access-protected, no cache slot), protected
// (access-protected, has a slot), or accessible. The sweep converts
// accessible frames to protected and picks the slot behind a protected
// frame for replacement.
//
// In shared-memory mode a slot may be mapped by several processes, so the
// clock splits in two levels: level 1 is the per-process frame clock, which
// invalidates protected frames and decrements the per-slot reference
// counter; level 2 sweeps the cache slots and replaces one whose counter has
// dropped to zero.
package cache

import (
	"errors"
	"fmt"
	"sync"

	"bess/internal/page"
)

// Errors returned by the cache layer.
var (
	ErrNoVictim = errors.New("cache: no replaceable slot (all pinned or referenced)")
	ErrBadSlot  = errors.New("cache: slot index out of range")
	ErrFull     = errors.New("cache: full")
)

// Slot is one cache slot's metadata.
type Slot struct {
	ID      page.ID
	Valid   bool
	Dirty   bool
	Pins    int
	Counter int // number of processes that can access this slot (§4.2)
}

// Evicted describes a replaced slot so the caller can write back dirty data.
type Evicted struct {
	ID    page.ID
	Dirty bool
	Data  []byte // copy of the evicted bytes when dirty, nil otherwise
}

// Stats are cumulative pool counters.
type Stats struct {
	Hits, Misses, Evictions int64
	SweepSteps              int64 // level-2 clock hand movements
}

// Pool is the shared cache: a fixed array of page-size slots plus the
// level-2 clock. Safe for concurrent use.
//
//bess:resource acquire=Pool.Acquire release=Pool.Unpin mode=pinned
type Pool struct {
	mu sync.Mutex
	// data is deliberately unguarded: SlotData hands out slices into the
	// arena and pin counts, not mu, keep concurrent users apart.
	data   []byte          // nslots * page.Size, one contiguous arena (Figure 3)
	slots  []Slot          // guarded by mu
	lookup map[page.ID]int // guarded by mu
	hand   int             // guarded by mu
	stats  Stats           // guarded by mu
}

// NewPool creates a pool of nslots page frames.
func NewPool(nslots int) *Pool {
	if nslots < 1 {
		nslots = 1
	}
	return &Pool{
		data:   make([]byte, nslots*page.Size),
		slots:  make([]Slot, nslots),
		lookup: make(map[page.ID]int, nslots),
	}
}

// Cap returns the number of slots.
func (p *Pool) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// SlotData returns the backing bytes of slot i. The slice aliases the cache
// arena; processes map it into their address spaces.
func (p *Pool) SlotData(i int) []byte {
	return p.data[i*page.Size : (i+1)*page.Size]
}

// Lookup finds the slot caching id, counting a hit or miss.
func (p *Pool) Lookup(id page.ID) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	if ok {
		p.stats.Hits++
	} else {
		p.stats.Misses++
	}
	return i, ok
}

// Peek is Lookup without statistics (internal checks).
func (p *Pool) Peek(id page.ID) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	return i, ok
}

// Slot returns a copy of slot i's metadata.
func (p *Pool) Slot(i int) (Slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) {
		return Slot{}, ErrBadSlot
	}
	return p.slots[i], nil
}

// Acquire returns a slot for id: the existing one on a hit, or a victim
// chosen by the level-2 clock on a miss (the caller then fills SlotData and
// calls Commit). The returned Evicted is non-nil when a dirty slot was
// replaced. The slot is pinned; Unpin when done.
func (p *Pool) Acquire(id page.ID) (slot int, hit bool, ev *Evicted, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i, ok := p.lookup[id]; ok {
		p.stats.Hits++
		p.slots[i].Pins++
		return i, true, nil, nil
	}
	p.stats.Misses++
	i, ev, err := p.victimLocked()
	if err != nil {
		return 0, false, nil, err
	}
	p.slots[i] = Slot{ID: id, Valid: true, Pins: 1}
	p.lookup[id] = i
	return i, false, ev, nil
}

// victimLocked runs the level-2 clock: sweep slots, replace one with
// counter zero and no pins. Invalid slots are taken immediately.
//
//bess:holds mu
func (p *Pool) victimLocked() (int, *Evicted, error) {
	n := len(p.slots)
	for step := 0; step < 2*n; step++ {
		i := p.hand
		p.hand = (p.hand + 1) % n
		p.stats.SweepSteps++
		s := &p.slots[i]
		if !s.Valid {
			return i, nil, nil
		}
		if s.Pins > 0 || s.Counter > 0 {
			continue
		}
		// Replaceable.
		var ev *Evicted
		if s.Dirty {
			ev = &Evicted{ID: s.ID, Dirty: true, Data: append([]byte(nil), p.SlotData(i)...)}
		} else {
			ev = &Evicted{ID: s.ID}
		}
		delete(p.lookup, s.ID)
		p.stats.Evictions++
		*s = Slot{}
		return i, ev, nil
	}
	return 0, nil, ErrNoVictim
}

// Pin prevents slot i from being replaced.
func (p *Pool) Pin(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Pins++
	return nil
}

// Unpin releases a pin.
func (p *Pool) Unpin(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || p.slots[i].Pins == 0 {
		return ErrBadSlot
	}
	p.slots[i].Pins--
	return nil
}

// MarkDirty flags slot i for write-back on eviction.
func (p *Pool) MarkDirty(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Dirty = true
	return nil
}

// MarkClean clears the dirty flag (after write-back).
func (p *Pool) MarkClean(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Dirty = false
	return nil
}

// IncCounter notes that one more process gained access to slot i (§4.2:
// "each process increments it when the process gains access to that slot").
func (p *Pool) IncCounter(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || !p.slots[i].Valid {
		return ErrBadSlot
	}
	p.slots[i].Counter++
	return nil
}

// DecCounter is called by a process' level-1 clock when it invalidates its
// frame for slot i.
func (p *Pool) DecCounter(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || p.slots[i].Counter == 0 {
		return ErrBadSlot
	}
	p.slots[i].Counter--
	return nil
}

// DropIfClean removes a clean, unpinned, unreferenced page from the cache
// (callback invalidation uses this).
func (p *Pool) DropIfClean(id page.ID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	if !ok {
		return true
	}
	s := &p.slots[i]
	if s.Dirty || s.Pins > 0 || s.Counter > 0 {
		return false
	}
	delete(p.lookup, id)
	*s = Slot{}
	return true
}

// Drop removes id unconditionally (after forced write-back), returning the
// dirty bytes if any.
func (p *Pool) Drop(id page.ID) *Evicted {
	p.mu.Lock()
	defer p.mu.Unlock()
	i, ok := p.lookup[id]
	if !ok {
		return nil
	}
	s := &p.slots[i]
	var ev *Evicted
	if s.Dirty {
		ev = &Evicted{ID: id, Dirty: true, Data: append([]byte(nil), p.SlotData(i)...)}
	} else {
		ev = &Evicted{ID: id}
	}
	delete(p.lookup, id)
	*s = Slot{}
	return ev
}

// Snapshot returns cumulative statistics.
func (p *Pool) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// DirtyPages lists the ids of dirty slots (checkpoints, shutdown flush).
func (p *Pool) DirtyPages() []page.ID {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []page.ID
	for i := range p.slots {
		if p.slots[i].Valid && p.slots[i].Dirty {
			out = append(out, p.slots[i].ID)
		}
	}
	return out
}

// String summarizes the pool for diagnostics.
func (p *Pool) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := 0
	for i := range p.slots {
		if p.slots[i].Valid {
			live++
		}
	}
	return fmt.Sprintf("cache{slots=%d live=%d hits=%d misses=%d evictions=%d}",
		len(p.slots), live, p.stats.Hits, p.stats.Misses, p.stats.Evictions)
}

// VStats is the snapshot-read counter pair Server.VersionStats reports. It
// stays in this shape because the repository benchmark reads exactly these
// two fields. Snapshot reads are served by WAL reconstruction alone, so
// ChainHits is always 0 (there are no version chains), and Trimmed counts
// snapshot fetches that read at least one WAL before-image.
type VStats struct {
	ChainHits int64
	Trimmed   int64
}
