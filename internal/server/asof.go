package server

import (
	"sort"

	"bess/internal/lockcheck"
	"bess/internal/page"
	"bess/internal/tx"
	"bess/internal/wal"
)

// The as-of index (DESIGN.md §7) is the WAL side of snapshot reads: for
// every page, the LSN and transaction of each logged update that an open
// snapshot — or one opened later — could still select as its as-of
// before-image. WAL reconstruction looks a page up here and reads exactly
// one record, instead of scanning the log's whole history.
//
// Selection rule (the one ARIES undo implies): the as-of-T content of a
// page is the before-image of its earliest update whose transaction
// committed after T or never committed, counting only updates after the
// page's last update by a transaction committed at or before T. No such
// update means the page on disk already holds its as-of-T content.
//
// A rollback counts as a commit that changed nothing, ending at the log
// tail once its undo is done: undo (under the writer's X lock) restored
// each page to the before-image of the transaction's first update on it,
// so for a later snapshot the next entry or the disk image yields the same
// bytes the rolled-back entry would.
//
// Pruning keeps the index to what open snapshots can select. Once every
// open snapshot's stamp is at or past a transaction's end, every snapshot
// sees it as ended, so its entries and every earlier entry on the same
// pages are superseded. Entries are pruned at commit, at rollback, and
// when a snapshot closes. With no snapshot open a transaction's entries go
// away at its end, so the index holds only in-flight transactions' pages.
type asOfIndex struct {
	// txm supplies the version clock and the oldest open snapshot; both
	// take only the tx manager's short internal mutex.
	txm *tx.Manager

	mu    lockcheck.Mutex
	pages map[page.ID][]asOfEntry // guarded by mu; per page in LSN order (its writers hold the segment X lock in turn)
	txs   map[uint64]*asOfTx      // guarded by mu; transactions with live entries
	n     int                     // guarded by mu; live entries
}

// asOfEntry is one indexed update record.
type asOfEntry struct {
	lsn page.LSN
	tx  *asOfTx
}

// asOfTx is the index's view of one writing transaction.
type asOfTx struct {
	id    uint64
	end   page.LSN  // commit LSN, or the log tail after rollback; 0 while in flight
	pages []page.ID // pages its entries were added to
	n     int       // live entries
}

func newAsOfIndex(txm *tx.Manager) *asOfIndex {
	ix := &asOfIndex{
		txm:   txm,
		pages: make(map[page.ID][]asOfEntry),
		txs:   make(map[uint64]*asOfTx),
	}
	ix.mu.Init("asOfIndex.mu", rankAsOfMu)
	return ix
}

// endedBy reports whether x ended at or before stamp t.
func (x *asOfTx) endedBy(t page.LSN) bool {
	return x.end != 0 && x.end <= t
}

// add indexes the update record at lsn that txID logged for pid. It runs
// after the record is appended and before the page is written, so a
// reconstruction that read the page always finds the record that covers
// what it read.
func (ix *asOfIndex) add(txID uint64, pid page.ID, lsn page.LSN) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	x := ix.txs[txID]
	if x == nil {
		x = &asOfTx{id: txID}
		ix.txs[txID] = x
	}
	es := ix.pages[pid]
	if len(es) == 0 || es[len(es)-1].tx != x {
		x.pages = append(x.pages, pid)
	}
	ix.pages[pid] = append(es, asOfEntry{lsn: lsn, tx: x})
	x.n++
	ix.n++
}

// committed records txID's commit at lsn, then prunes what no snapshot can
// select any more. The version clock is raised to lsn first, under mu, so
// no snapshot can open below lsn after txID's entries are gone.
func (ix *asOfIndex) committed(txID uint64, lsn page.LSN) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if x := ix.txs[txID]; x != nil {
		x.end = lsn
		ix.txm.SeedCommitStamp(lsn)
		ix.settleLocked(x)
	}
}

// rolledBack records that txID's undo finished before log position end,
// then prunes its entries if no open snapshot predates end. The clock is
// left alone: end is no commit, and a stamp must never reach a commit
// record still to be appended.
func (ix *asOfIndex) rolledBack(txID uint64, end page.LSN) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if x := ix.txs[txID]; x != nil {
		x.end = end
		ix.settleLocked(x)
	}
}

//bess:holds mu
func (ix *asOfIndex) settleLocked(x *asOfTx) {
	if w, snapsOpen := ix.txm.OldestSnapshot(); !snapsOpen || x.endedBy(w) {
		ix.pruneLocked(x, w, snapsOpen)
	}
}

// sweep prunes every ended transaction that the open snapshots have all
// passed; called when a snapshot closes.
func (ix *asOfIndex) sweep() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	w, snapsOpen := ix.txm.OldestSnapshot()
	for _, x := range ix.txs {
		if x.end != 0 && (!snapsOpen || x.endedBy(w)) {
			ix.pruneLocked(x, w, snapsOpen)
		}
	}
}

// pruneLocked drops, on each page ended transaction x wrote, every entry up
// to the last one whose transaction ended at or before w: no snapshot at a
// stamp ≥ w can select them. With snapsOpen false it drops up to the last
// ended entry of any kind — a later snapshot's stamp is past every
// recorded commit (committed raised the clock), and a rolled-back entry
// selects the same bytes as whatever follows it.
//
//bess:holds mu
func (ix *asOfIndex) pruneLocked(x *asOfTx, w page.LSN, snapsOpen bool) {
	for _, pid := range x.pages {
		es := ix.pages[pid]
		cut := 0
		for i, e := range es {
			if e.tx.end != 0 && (!snapsOpen || e.tx.endedBy(w)) {
				cut = i + 1
			}
		}
		for _, e := range es[:cut] {
			ix.dropLocked(e)
		}
		if cut == len(es) {
			delete(ix.pages, pid)
		} else {
			ix.pages[pid] = append(es[:0], es[cut:]...)
		}
	}
	delete(ix.txs, x.id) // every page was cut past x's own entries
}

//bess:holds mu
func (ix *asOfIndex) dropLocked(e asOfEntry) {
	ix.n--
	e.tx.n--
	if e.tx.n == 0 && e.tx.end != 0 {
		delete(ix.txs, e.tx.id)
	}
}

// lookup returns the LSN of the update record whose before-image is pid's
// content as of stamp t, or false when the page on disk already holds it.
func (ix *asOfIndex) lookup(pid page.ID, t page.LSN) (page.LSN, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	es := ix.pages[pid]
	i := len(es)
	for i > 0 && !es[i-1].tx.endedBy(t) {
		i--
	}
	if i < len(es) {
		return es[i].lsn, true
	}
	return 0, false
}

// reindexPrepared re-enters the updates of in-doubt 2PC branches adopted by
// restart recovery: their after-images are on disk, so a snapshot must
// reconstruct past them until the coordinator's decision arrives. Each
// branch's chain is walked back from its prepare record.
func (ix *asOfIndex) reindexPrepared(log *wal.Log, last map[uint64]page.LSN) error {
	type upd struct {
		tx  uint64
		pid page.ID
		lsn page.LSN
	}
	var us []upd
	for id, lsn := range last {
		for lsn != 0 {
			rec, err := log.ReadRecord(lsn)
			if err != nil {
				return err
			}
			if rec.Type == wal.TUpdate {
				us = append(us, upd{tx: id, pid: rec.Page, lsn: lsn})
			}
			lsn = rec.PrevLSN
		}
	}
	sort.Slice(us, func(i, j int) bool { return us[i].lsn < us[j].lsn })
	for _, u := range us {
		ix.add(u.tx, u.pid, u.lsn)
	}
	return nil
}
