// Package walorder reproduces write-ahead-ordering violations: page
// stores before their covering log record, mutations without a pre-update
// capture, and non-monotone LSN chains.
//
//bess:walorder
//bess:walsink Pager.WritePage
//bess:walsink Cache.StorePage
//bess:walorder capture=Store.Stage mutate=DB.apply
//bess:walsink Area.Put
//bess:walorder capture=Index.add mutate=Area.Put
package walorder

// LSN mirrors page.LSN.
type LSN uint64

// Record is a miniature WAL record.
type Record struct {
	Tx      uint64
	PrevLSN LSN
}

// Log mirrors wal.Log: Append assigns the next LSN.
type Log struct{ next LSN }

// Append appends one record.
func (l *Log) Append(r *Record) LSN {
	l.next++
	return l.next
}

// Pager mirrors wal.Pager: the page-store sink interface.
type Pager interface {
	WritePage(p int, b []byte)
}

// Cache is a concrete sink (a dirty frame store).
type Cache struct{ n int }

// StorePage stores one page image.
func (c *Cache) StorePage(p int, b []byte) { c.n++ }

// Store is a capture side: Stage records an overwrite before it begins.
type Store struct{ staged int }

// Stage records an in-flight overwrite.
func (s *Store) Stage(p int) { s.staged++ }

// Area is a sink that is also a mutate side: every Put must follow an
// Index.add of the record it applies.
type Area struct{ n int }

// Put stores one page image.
func (a *Area) Put(p int, b []byte) { a.n++ }

// Index mirrors the server's as-of index: add records an update's LSN.
type Index struct{ n int }

func (ix *Index) add(p int, lsn LSN) { ix.n++ }

// DB ties the pieces together.
type DB struct {
	log *Log
	c   Cache
	st  Store
	pg  Pager
	ar  Area
	ix  Index
}

// LogThenWrite follows the rule: append first, then store.
func (d *DB) LogThenWrite(p int, img []byte) {
	d.log.Append(&Record{Tx: 1})
	d.c.StorePage(p, img)
}

// WriteThenLog breaks log-before-data: the store races a crash window
// where the page is dirty and the log has no record.
func (d *DB) WriteThenLog(p int, img []byte) {
	d.c.StorePage(p, img) // want walorder
	d.log.Append(&Record{Tx: 1})
}

// logUpdate is the interprocedural append: callers inherit its effect.
func (d *DB) logUpdate(tx uint64) LSN {
	return d.log.Append(&Record{Tx: tx})
}

// ViaHelper appends through a helper before storing: fine.
func (d *DB) ViaHelper(p int, img []byte) {
	d.logUpdate(7)
	d.c.StorePage(p, img)
}

// LoopBody keeps the append ahead of the store inside a loop: fine.
func (d *DB) LoopBody(pages []int, img []byte) {
	for _, p := range pages {
		d.logUpdate(8)
		d.c.StorePage(p, img)
	}
}

// InterfaceSink stores through the Pager interface with no record.
func (d *DB) InterfaceSink(p int, img []byte) {
	d.pg.WritePage(p, img) // want walorder
}

// Replay re-applies an already-logged record; the waiver names why.
func (d *DB) Replay(p int, img []byte) {
	//bess:walorder ignore=redo replay re-applies a record already in the log
	d.pg.WritePage(p, img)
}

// apply is the declared mutate side of the capture pair.
func (d *DB) apply(p int, img []byte) {
	d.logUpdate(9)
	d.c.StorePage(p, img)
}

// StagedUpdate captures before mutating: fine.
func (d *DB) StagedUpdate(p int, img []byte) {
	d.st.Stage(p)
	d.apply(p, img)
}

// UnstagedUpdate mutates without the capture: an open snapshot could see
// a torn image.
func (d *DB) UnstagedUpdate(p int, img []byte) {
	d.apply(p, img) // want walorder
}

// IndexedPut logs, indexes, then stores: fine.
func (d *DB) IndexedPut(p int, img []byte) {
	lsn := d.logUpdate(10)
	d.ix.add(p, lsn)
	d.ar.Put(p, img)
}

// PutBeforeIndex stores the logged page before indexing its record: a
// reader between the two sees the new page with nothing to undo it.
func (d *DB) PutBeforeIndex(p int, img []byte) {
	lsn := d.logUpdate(11)
	d.ar.Put(p, img) // want walorder
	d.ix.add(p, lsn)
}

// Chain reassigns the chain head after every append: monotone, fine.
func (d *DB) Chain() {
	prev := d.log.Append(&Record{Tx: 2})
	prev = d.log.Append(&Record{Tx: 2, PrevLSN: prev})
	d.log.Append(&Record{Tx: 2, PrevLSN: prev})
}

// ForkedChain reuses a stale LSN after a newer append: the second record
// vanishes from the per-transaction chain.
func (d *DB) ForkedChain() {
	prev := d.log.Append(&Record{Tx: 3})
	d.log.Append(&Record{Tx: 3, PrevLSN: prev})
	d.log.Append(&Record{Tx: 3, PrevLSN: prev}) // want walorder
}
