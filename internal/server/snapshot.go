package server

import (
	"errors"
	"fmt"
	"maps"

	"bess/internal/cache"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/tx"
	"bess/internal/wal"
)

// Snapshot reads (DESIGN.md §7): SnapOpen pins a version stamp, SnapFetchSeg
// serves segment images as of that stamp, SnapClose unpins it. The read path
// touches neither the lock manager nor the copy table — snapshot readers
// hold no locks, receive no callbacks, and cause none.

// snapEntry is one open snapshot: its tx-layer pin and owning client.
type snapEntry struct {
	snap   *tx.Snap
	client uint32
}

// publishSnapsLocked copies the registry and publishes the copy for
// lock-free readers. Called with snapMu held; the published map is never
// mutated again.
//
//bess:holds snapMu
func (s *Server) publishSnapsLocked() {
	view := maps.Clone(s.snapshots)
	s.snapView.Store(&view)
}

// publishBornLocked publishes a copy of the creation records the same way.
//
//bess:holds snapMu
func (s *Server) publishBornLocked() {
	view := maps.Clone(s.born)
	s.bornView.Store(&view)
}

// noteCreated records that seg was created after every snapshot opened so
// far. CreateSegment writes its initial pages without logging, so the WAL
// cannot tell an older snapshot the segment did not exist yet; this record
// does. Stamps cannot order the two — no commit need fall between a
// snapshot and a creation — so the record holds the newest snapshot id
// issued instead. Nothing is recorded while no
// snapshot is open: every later snapshot postdates the segment.
func (s *Server) noteCreated(seg proto.SegKey) {
	s.snapMu.Lock()
	if len(s.snapshots) > 0 {
		s.born[seg] = s.lastSnap
		s.publishBornLocked()
	}
	s.snapMu.Unlock()
}

// SnapOpen implements proto.Conn: open a read-only snapshot at the current
// commit stamp. The snapshot begins under snapMu so its id orders it
// against segment creations (noteCreated).
func (s *Server) SnapOpen(client uint32) (uint64, uint64, error) {
	s.stats.messages.Add(1)
	if s.closed.Load() {
		return 0, 0, ErrShutdown
	}
	s.snapMu.Lock()
	sn := s.txm.BeginSnapshot()
	s.lastSnap = sn.ID()
	s.snapshots[sn.ID()] = &snapEntry{snap: sn, client: client}
	s.publishSnapsLocked()
	s.snapMu.Unlock()
	return sn.ID(), uint64(sn.Stamp()), nil
}

// SnapClose implements proto.Conn: release a snapshot and prune the as-of
// index entries it alone was retaining.
func (s *Server) SnapClose(client uint32, snap uint64) error {
	s.stats.messages.Add(1)
	s.snapMu.Lock()
	e := s.snapshots[snap]
	if e != nil {
		delete(s.snapshots, snap)
		s.retireSnapsLocked()
	}
	s.snapMu.Unlock()
	if e != nil {
		s.releaseSnaps([]*snapEntry{e})
	}
	return nil
}

// closeClientSnaps releases every snapshot a disconnecting client left open.
func (s *Server) closeClientSnaps(client uint32) {
	s.snapMu.Lock()
	var doomed []*snapEntry
	for id, e := range s.snapshots {
		if e.client == client {
			doomed = append(doomed, e)
			delete(s.snapshots, id)
		}
	}
	if len(doomed) > 0 {
		s.retireSnapsLocked()
	}
	s.snapMu.Unlock()
	if len(doomed) > 0 {
		s.releaseSnaps(doomed)
	}
}

// retireSnapsLocked republishes the registry after snapshots left it and
// drops the creation records no open snapshot predates.
//
//bess:holds snapMu
func (s *Server) retireSnapsLocked() {
	s.publishSnapsLocked()
	oldest := s.lastSnap + 1
	for id := range s.snapshots {
		if id < oldest {
			oldest = id
		}
	}
	dropped := false
	for k, id := range s.born {
		if id < oldest {
			delete(s.born, k)
			dropped = true
		}
	}
	if dropped {
		s.publishBornLocked()
	}
}

// releaseSnaps unpins closed snapshots and prunes the as-of index entries
// only they could select.
func (s *Server) releaseSnaps(doomed []*snapEntry) {
	for _, e := range doomed {
		e.snap.Close()
	}
	s.asof.sweep()
}

// snapEntryOf resolves a snapshot id. Lock-free: it runs on every snapshot
// fetch, so it reads the published copy-on-write view instead of taking
// snapMu (bess-vet's lockfree analyzer holds this path to zero lock
// acquisitions).
func (s *Server) snapEntryOf(snap uint64) (*snapEntry, error) {
	var e *snapEntry
	if view := s.snapView.Load(); view != nil {
		e = (*view)[snap]
	}
	if e == nil {
		return nil, fmt.Errorf("server: unknown snapshot %d", snap)
	}
	return e, nil
}

// SnapFetchSeg implements proto.Conn: the segment's image as of the
// snapshot's stamp. Unlike FetchSeg it records no cached copy (the image
// may be stale by design, so it must not join the callback protocol) and
// acquires no locks. bess-vet's lockfree analyzer walks the whole call
// graph from here: any reachable lock acquisition is a finding unless a
// waiver names the deliberate exception.
//
//bess:lockfree
func (s *Server) SnapFetchSeg(client uint32, snap uint64, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	s.stats.messages.Add(1)
	e, err := s.snapEntryOf(snap)
	if err != nil {
		return nil, nil, nil, err
	}
	return s.readAsOf(seg, e)
}

// readAsOf serves seg's image as of snapshot e: ErrNoSegment when seg was
// created after e opened, else its WAL reconstruction at e's stamp (a
// segment unchanged since then is read from disk as is).
//
//bess:hotpath
func (s *Server) readAsOf(seg proto.SegKey, e *snapEntry) ([]byte, []byte, []byte, error) {
	s.stats.snapFetches.Add(1)
	if born := s.bornView.Load(); born != nil {
		if id, ok := (*born)[seg]; ok && e.snap.ID() <= id {
			return nil, nil, nil, ErrNoSegment
		}
	}
	//bess:lockfree ignore=each page lookup takes asOfIndex.mu alone (plus the catalog and area page latches); one log record is read per reconstructed page, outside any latch
	return s.reconstructAsOf(seg, e.snap.Stamp())
}

// reconstructAsOf rebuilds seg's image at stamp t from the WAL. Each page
// of the slotted, data and overflow runs is read, then looked up in the
// as-of index; a page with an as-of before-image gets it from exactly one
// log record, and every other page already holds its as-of content.
// Updates are logged as full-page images (logAndApply), so reconstruction
// is exact. Reading the page before the lookup is what makes it safe
// against a concurrent writer: the writer indexed its record before
// writing the page, so whatever the read saw is covered.
//
// A slotted image that fails its checksum is reported as the corruption it
// is, not as a missing segment. Repair is left to the locked read paths
// and the scrubber: this path stays lock-free.
func (s *Server) reconstructAsOf(seg proto.SegKey, t page.LSN) ([]byte, []byte, []byte, error) {
	sm, _, ok := s.cat.segMetaOf(seg)
	if !ok {
		return nil, nil, nil, ErrNoSegment
	}
	// Slotted section first: its reconstructed header names the data and
	// overflow runs as of t.
	sl, recs, err := s.runAsOf(page.AreaID(seg.Area), page.No(seg.Start), sm.SlottedPages, t)
	if err != nil {
		return nil, nil, nil, err
	}
	dec, err := segment.DecodeSlotted(sl)
	if err != nil {
		if corruptionIn(err) {
			var ce *page.CorruptError
			if errors.As(err, &ce) {
				ce.Area, ce.Page = page.AreaID(seg.Area), page.No(seg.Start)
			}
			s.scrubCtr.corruptions.Add(1)
			return nil, nil, nil, err
		}
		return nil, nil, nil, fmt.Errorf("%w: no image at stamp %d", ErrNoSegment, t)
	}
	data, n, err := s.runAsOf(dec.Hdr.DataArea, dec.Hdr.DataStart, int(dec.Hdr.DataPages), t)
	if err != nil {
		return nil, nil, nil, err
	}
	recs += n
	var over []byte
	if dec.Hdr.OverPages > 0 {
		if over, n, err = s.runAsOf(dec.Hdr.OverArea, dec.Hdr.OverStart, int(dec.Hdr.OverPages), t); err != nil {
			return nil, nil, nil, err
		}
		recs += n
	}
	if recs > 0 {
		s.stats.asOfRecords.Add(int64(recs))
		s.stats.walRebuilds.Add(1)
	}
	return sl, over, data, nil
}

// runAsOf returns the n-page run at area/start as of stamp t: all pages are
// read first, then each page with an as-of before-image is replaced by it,
// read from one log record; recs counts the records read.
func (s *Server) runAsOf(areaID page.AreaID, start page.No, n int, t page.LSN) (buf []byte, recs int, err error) {
	buf = make([]byte, n*page.Size)
	for i := 0; i < n; i++ {
		if err := s.ReadPage(page.ID{Area: areaID, Page: start + page.No(i)}, buf[i*page.Size:(i+1)*page.Size]); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < n; i++ {
		pid := page.ID{Area: areaID, Page: start + page.No(i)}
		lsn, ok := s.asof.lookup(pid, t)
		if !ok {
			continue
		}
		// The record may still sit in the log buffer (an in-flight
		// writer's update); force through it so ReadRecord sees it.
		if err := s.log.Flush(lsn); err != nil {
			return nil, 0, err
		}
		rec, err := s.log.ReadRecord(lsn)
		if err != nil {
			return nil, 0, err
		}
		if rec.Type != wal.TUpdate || rec.Page != pid || rec.Off != 0 {
			return nil, 0, fmt.Errorf("server: as-of reconstruction: record at %d is not a full-page update of %v", lsn, pid)
		}
		dst := buf[i*page.Size : (i+1)*page.Size]
		for j := copy(dst, rec.Before); j < len(dst); j++ {
			dst[j] = 0
		}
		recs++
	}
	return buf, recs, nil
}

// VersionStats reports snapshot-read counters in the shape the repository
// benchmark reads (cache.VStats).
func (s *Server) VersionStats() cache.VStats {
	return cache.VStats{Trimmed: s.stats.walRebuilds.Load()}
}

// LockStats exposes the lock manager's counters — the zero-locks assertion
// for snapshot reads (E16) checks the Acquires delta across a read phase.
func (s *Server) LockStats() lock.Stats { return s.locks.Snapshot() }
