package client

import (
	"strings"
	"sync"

	"bess/internal/cache"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

// Client half of the streaming scan pipeline (DESIGN.md §6).
//
// StreamScan opens a server-side cursor with one ScanStart round trip, then
// consumes ScanData batches the server pushes ahead of the iterator. Pushed
// images are scattered into pinned frames of a private cache.Pool sized to
// the credit window, so prefetched data lives in preallocated page frames
// instead of unbounded heap garbage; the iterator gathers each image back
// into contiguous section buffers just before priming the fetcher with it.
// Flow control is credit-based in image bytes: the window opens with one
// ScanCtl grant after the stream is registered (no push can race the
// registration), and every consumed image tops the window back up.
//
// The prefetcher deliberately spawns nothing: delivery runs on the peer's
// read loop and the iterator runs on the caller. Any future goroutine here
// must carry stop evidence for bess-vet's golife analyzer (DESIGN.md §4e):
//
//bess:golife

// Streaming scan tuning. The window is the push budget granted to the
// server; the pool holds twice that so slow consumers spill rarely.
const (
	defaultScanWindow = 4 << 20
	scanFrameArea     = page.AreaID(0xFFFFFFFF) // synthetic ids for scan frames
)

// frameBuf is one byte run scattered across pinned pool frames, with a heap
// spill tail for bytes the pool could not hold (all slots pinned).
type frameBuf struct {
	slots []int
	tail  []byte
	n     int
}

// scanImage is one pushed segment image, held frame-scattered until the
// iterator reaches it.
type scanImage struct {
	sl, ov, data frameBuf
	size         int // total image bytes (the credit to return)
}

// scanStream is the client side of one streaming scan.
type scanStream struct {
	r    *Remote
	id   uint64
	plan []proto.ScanSeg
	idx  map[proto.SegKey]int // segment → plan position
	pool *cache.Pool
	hook func(images, bytes int)

	mu        sync.Mutex
	cond      *sync.Cond
	ready     map[proto.SegKey]*scanImage // delivered, not yet consumed; guarded by mu
	frontier  int                         // plan positions below this pushed or skipped; guarded by mu
	done      bool                        // final batch arrived; guarded by mu
	err       error                       // sticky failure; guarded by mu
	draining  bool                        // closed: discard further deliveries; guarded by mu
	nextFrame uint64                      // synthetic frame page numbers; guarded by mu
	spills    int64                       // images (partially) spilled to heap; guarded by mu
}

func newScanStream(r *Remote, id uint64, plan []proto.ScanSeg, poolSlots int, hook func(int, int)) *scanStream {
	st := &scanStream{
		r:     r,
		id:    id,
		plan:  plan,
		idx:   make(map[proto.SegKey]int, len(plan)),
		pool:  cache.NewPool(poolSlots),
		hook:  hook,
		ready: make(map[proto.SegKey]*scanImage),
	}
	for i, e := range plan {
		st.idx[e.Seg] = i
	}
	st.cond = sync.NewCond(&st.mu)
	return st
}

// deliver consumes one pushed ScanData frame. It runs on the peer's read
// loop: decode, scatter into frames, signal the iterator — never block.
func (st *scanStream) deliver(body []byte) {
	sb, err := proto.DecodeScanBatch(body)
	if err != nil {
		st.fail(err)
		return
	}
	bytes := 0
	st.mu.Lock()
	if st.draining {
		st.mu.Unlock()
		return
	}
	for i := range sb.Images {
		img := &sb.Images[i]
		pos, ok := st.idx[img.Seg]
		if !ok {
			continue // not in the plan; nothing will ever wait for it
		}
		si := &scanImage{
			sl:   st.scatterLocked(img.Slotted),
			ov:   st.scatterLocked(img.Overflow),
			data: st.scatterLocked(img.Data),
		}
		si.size = si.sl.n + si.ov.n + si.data.n
		bytes += si.size
		st.ready[img.Seg] = si
		if pos+1 > st.frontier {
			st.frontier = pos + 1
		}
	}
	if sb.Err != "" && st.err == nil {
		st.err = &rpc.RemoteError{Msg: sb.Err}
	}
	if sb.Last {
		st.done = true
		st.frontier = len(st.plan)
	}
	st.cond.Broadcast()
	st.mu.Unlock()
	if st.hook != nil {
		st.hook(len(sb.Images), bytes)
	}
}

// scatterLocked copies b into freshly pinned pool frames, spilling to the
// heap when every slot is pinned (the window normally prevents that).
//
//bess:holds mu
func (st *scanStream) scatterLocked(b []byte) frameBuf {
	fb := frameBuf{n: len(b)}
	for len(b) > 0 {
		st.nextFrame++
		slot, _, _, err := st.pool.Acquire(page.ID{Area: scanFrameArea, Page: page.No(st.nextFrame)})
		if err != nil {
			fb.tail = append([]byte(nil), b...)
			st.spills++
			return fb
		}
		n := copy(st.pool.SlotData(slot), b)
		fb.slots = append(fb.slots, slot)
		b = b[n:]
	}
	return fb
}

// gatherLocked reassembles a frameBuf into one contiguous slice, unpinning
// (and thereby recycling) its frames.
func (st *scanStream) gatherLocked(fb frameBuf) []byte {
	if fb.n == 0 {
		st.freeLocked(fb)
		return nil
	}
	out := make([]byte, 0, fb.n)
	framed := fb.n - len(fb.tail)
	for _, slot := range fb.slots {
		d := st.pool.SlotData(slot)
		if rest := framed - len(out); rest < len(d) {
			d = d[:rest]
		}
		out = append(out, d...)
		_ = st.pool.Unpin(slot)
	}
	return append(out, fb.tail...)
}

// freeLocked unpins a frameBuf without gathering it.
func (st *scanStream) freeLocked(fb frameBuf) {
	for _, slot := range fb.slots {
		_ = st.pool.Unpin(slot)
	}
}

// take blocks until the image for plan position i is available and gathers
// it. A (nil, 0, nil) return means the server skipped the segment (dropped
// after planning); the iterator skips it too.
func (st *scanStream) take(i int) (*proto.SegImage, int, error) {
	seg := st.plan[i].Seg
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if si, ok := st.ready[seg]; ok {
			delete(st.ready, seg)
			img := &proto.SegImage{
				Seg:      seg,
				Slotted:  st.gatherLocked(si.sl),
				Overflow: st.gatherLocked(si.ov),
				Data:     st.gatherLocked(si.data),
			}
			return img, si.size, nil
		}
		if st.err != nil {
			return nil, 0, st.err
		}
		if st.frontier > i || st.done {
			return nil, 0, nil
		}
		st.cond.Wait()
	}
}

// fail records a sticky stream failure and wakes the iterator.
func (st *scanStream) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// credit returns n consumed bytes to the server's push window.
func (st *scanStream) credit(n int) error {
	return st.r.scanCtl(st.id, false, uint64(n))
}

// close cancels the scan if still live, stops delivery, and releases every
// pinned frame. Always called, on success and failure alike; idempotent.
func (st *scanStream) close() {
	st.r.unregisterScan(st.id)
	// A cancel for a finished cursor is dropped server-side; on a dead
	// peer the send fails, which is equally fine.
	_ = st.r.scanCtl(st.id, true, 0)
	st.mu.Lock()
	st.draining = true
	for seg, si := range st.ready {
		st.freeLocked(si.sl)
		st.freeLocked(si.ov)
		st.freeLocked(si.data)
		delete(st.ready, seg)
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// pinnedFrames counts pool frames still pinned (leak check for tests).
func (st *scanStream) pinnedFrames() int {
	n := 0
	for i := 0; i < st.pool.Cap(); i++ {
		s, err := st.pool.Slot(i)
		if err == nil {
			n += s.Pins
		}
	}
	return n
}

// isNoSegment matches server.ErrNoSegment across the wire (the client does
// not import internal/server): a segment listed by SegmentsOf but dropped
// before it could be read.
func isNoSegment(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no such segment")
}

// StreamScan iterates over the live objects of every segment of file
// fileID like Scan, but with the push-based streaming pipeline: the server
// pushes segment images ahead of the cursor and the iterator consumes them
// from local prefetched frames, so a cold full-file scan needs one round
// trip total instead of two per segment. In-process connections (no RPC
// peer to push over) take the pull path.
func (s *Session) StreamScan(fileID uint32, fn func(addr vmem.Addr, obj *swizzle.Object) error) error {
	if s.remote == nil {
		return s.Scan(fileID, fn)
	}
	window := s.scanWindow
	if window <= 0 {
		window = defaultScanWindow
	}
	// In snapshot mode the cursor is pinned to the snapshot's stamp: every
	// pushed image is the as-of version, consistent under concurrent
	// commits. The pull fallback is equally consistent — the fetcher routes
	// cold reads to SnapFetchSeg.
	snapID, inSnap := s.snapState()
	var scanID uint64
	var plan []proto.ScanSeg
	var err error
	if inSnap {
		scanID, plan, err = s.remote.snapScanStart(s.client, s.db, fileID, uint32(s.scanBatch), snapID)
	} else {
		scanID, plan, err = s.remote.scanStart(s.client, s.db, fileID, uint32(s.scanBatch))
	}
	if err != nil {
		return err
	}
	// Pool of 2x the window: the window bounds undelivered bytes, and the
	// extra headroom absorbs the gather/consume lag of the current image.
	slots := 2*window/page.Size + 8
	st := newScanStream(s.remote, scanID, plan, slots, s.scanHook)
	s.lastScan = st // leak inspection for tests
	s.remote.registerScan(scanID, st)
	defer st.close()
	// Open the window; the server pushes nothing before this grant.
	if err := st.credit(window); err != nil {
		return err
	}
	// Consumed bytes are returned in watermark batches rather than one
	// ScanCtl per segment: the window only needs topping up before the
	// server can stall on it, and a grant per quarter-window keeps at
	// least 3/4 of the budget open while cutting the reverse control
	// traffic (and its round trips) by the batching factor.
	owed := 0
	for i := range plan {
		img, size, err := st.take(i)
		if err != nil {
			return err
		}
		if img == nil {
			continue // dropped server-side after planning; skip like Scan does
		}
		id := segID(img.Seg)
		s.fetch.prime(id, img, int(plan[i].SlottedPages))
		err = s.ScanSegment(img.Seg, fn)
		s.fetch.unprime(id)
		if err != nil {
			return err
		}
		if owed += size; owed >= window/4 {
			if err := st.credit(owed); err != nil {
				return err
			}
			owed = 0
		}
	}
	return nil
}

// SetScanTuning overrides the streaming scan's credit window and requested
// batch granularity in bytes (zero keeps the defaults). Benchmarks sweep
// these; applications normally leave them alone.
func (s *Session) SetScanTuning(window, batch int) {
	s.scanWindow, s.scanBatch = window, batch
}

// SetScanBatchHook installs fn to run as each pushed batch arrives, with
// the batch's image count and byte size. Test and measurement hook.
func (s *Session) SetScanBatchHook(fn func(images, bytes int)) { s.scanHook = fn }
