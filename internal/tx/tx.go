// Package tx implements BeSS transaction management: ACID transactions over
// the WAL and lock manager (paper §3), with runtime rollback under CLR
// protection and two-phase commit for distributed transactions.
//
// The package opts into bess-vet's walorder analyzer: any store through the
// Pager interface must follow a WAL append on the same path (log-before-data;
// DESIGN.md §4f). The one deliberate exception — Abort's before-image
// restore — carries an inline waiver.
//
//bess:walorder
//bess:walsink Pager.WritePage
package tx

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/page"
	"bess/internal/wal"
	"bess/internal/walcheck"
)

// State is a transaction's lifecycle state.
type State uint8

// Transaction states.
const (
	Active State = iota
	Prepared
	Committed
	Aborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Prepared:
		return "prepared"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Errors returned by the transaction layer.
var (
	ErrNotActive   = errors.New("tx: transaction not active")
	ErrNotPrepared = errors.New("tx: transaction not prepared")
)

// Manager creates and tracks transactions against one log + lock manager +
// page store. Safe for concurrent use.
type Manager struct {
	log   *wal.Log
	locks *lock.Manager
	pager wal.Pager
	hooks *hooks.Registry

	mu     sync.Mutex
	nextID uint64
	active map[uint64]*Tx

	// LockTimeout is passed to lock acquisitions made through transactions;
	// the paper uses timeouts for distributed deadlock detection.
	LockTimeout time.Duration

	commits, aborts int64

	// Multiversion read support (DESIGN.md §7). commitHook/abortHook are set
	// once at open time, before any transaction runs, and are read without
	// m.mu thereafter. The commit hook runs after the commit record is
	// durable but before locks release, so the as-of index records the
	// commit while the writer still excludes other writers of its pages.
	commitHook func(txID uint64, commitLSN page.LSN)
	abortHook  func(txID uint64)

	commitStamp page.LSN            // guarded by mu; latest published commit LSN (the version clock)
	snaps       map[uint64]page.LSN // guarded by mu; open snapshot id → stamp
	nextSnap    uint64              // guarded by mu
}

// NewManager wires a transaction manager. hooks may be nil.
func NewManager(log *wal.Log, locks *lock.Manager, pager wal.Pager, hk *hooks.Registry) *Manager {
	return &Manager{
		log:    log,
		locks:  locks,
		pager:  pager,
		hooks:  hk,
		nextID: 1,
		active: make(map[uint64]*Tx),
	}
}

// Tx is one transaction.
type Tx struct {
	m       *Manager
	id      uint64
	mu      sync.Mutex
	state   State
	lastLSN page.LSN
	// dirty tracks pages this tx updated, with the LSN of the first update
	// (recLSN) — feeds checkpoints.
	dirty map[page.ID]page.LSN
}

// Begin starts a transaction.
func (m *Manager) Begin() *Tx {
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	t := &Tx{m: m, id: id, state: Active, dirty: make(map[page.ID]page.LSN)}
	m.active[id] = t
	m.mu.Unlock()
	if m.hooks != nil {
		_ = m.hooks.Fire(hooks.EvTxBegin, id)
	}
	return t
}

// BeginWithID starts a transaction with a caller-chosen id (servers use the
// global transaction id of a distributed commit). Panics on reuse of a live
// id.
func (m *Manager) BeginWithID(id uint64) *Tx {
	m.mu.Lock()
	if _, dup := m.active[id]; dup {
		m.mu.Unlock()
		panic(fmt.Sprintf("tx: id %d already active", id))
	}
	if id >= m.nextID {
		m.nextID = id + 1
	}
	t := &Tx{m: m, id: id, state: Active, dirty: make(map[page.ID]page.LSN)}
	m.active[id] = t
	m.mu.Unlock()
	if m.hooks != nil {
		_ = m.hooks.Fire(hooks.EvTxBegin, id)
	}
	return t
}

// AdoptPrepared re-registers an in-doubt 2PC branch found by restart
// recovery: the transaction resumes in the Prepared state with its log
// chain intact, ready for Commit or Abort when the decision arrives.
func (m *Manager) AdoptPrepared(id uint64, lastLSN page.LSN) *Tx {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, live := m.active[id]; live {
		return t
	}
	if id >= m.nextID {
		m.nextID = id + 1
	}
	t := &Tx{m: m, id: id, state: Prepared, lastLSN: lastLSN, dirty: make(map[page.ID]page.LSN)}
	m.active[id] = t
	return t
}

// ID returns the transaction id.
func (t *Tx) ID() uint64 { return t.id }

// State returns the current state.
func (t *Tx) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// LastLSN returns the LSN of the transaction's most recent log record.
func (t *Tx) LastLSN() page.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastLSN
}

// Lock acquires (or upgrades) a lock on behalf of the transaction, firing
// the lock hooks and mapping deadlocks to the deadlock event.
func (t *Tx) Lock(name lock.Name, mode lock.Mode) error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrNotActive
	}
	t.mu.Unlock()
	err := t.m.locks.Acquire(lock.TxID(t.id), name, mode, t.m.LockTimeout)
	if t.m.hooks != nil {
		if err == nil {
			_ = t.m.hooks.Fire(hooks.EvLockAcquire, name)
		} else if errors.Is(err, lock.ErrDeadlock) {
			_ = t.m.hooks.Fire(hooks.EvDeadlock, t.id)
		}
	}
	return err
}

// LogUpdate appends an update record for a byte-range change the caller has
// made (or is about to make) to pid. The caller supplies before/after
// images; WAL ordering (log before page write reaches disk) is enforced by
// the buffer layer calling Log.Flush before eviction.
func (t *Tx) LogUpdate(pid page.ID, off uint32, before, after []byte) (page.LSN, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return 0, ErrNotActive
	}
	lsn, err := t.m.log.Append(&wal.Record{
		Type: wal.TUpdate, Tx: t.id, PrevLSN: t.lastLSN,
		Page: pid, Off: off,
		Before: append([]byte(nil), before...),
		After:  append([]byte(nil), after...),
	})
	if err != nil {
		return 0, err
	}
	walcheck.NoteUpdate(pid)
	t.lastLSN = lsn
	if _, ok := t.dirty[pid]; !ok {
		t.dirty[pid] = lsn
	}
	return lsn, nil
}

// DirtyPages returns the tx's dirty pages with their recLSNs.
func (t *Tx) DirtyPages() []wal.CkptPage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wal.CkptPage, 0, len(t.dirty))
	for pid, lsn := range t.dirty {
		out = append(out, wal.CkptPage{Page: pid, RecLSN: lsn})
	}
	return out
}

// Commit logs and forces a commit record, releases all locks (strict 2PL),
// and retires the transaction.
func (t *Tx) Commit() error {
	t.mu.Lock()
	if t.state != Active && t.state != Prepared {
		t.mu.Unlock()
		return ErrNotActive
	}
	lsn, err := t.m.log.Append(&wal.Record{Type: wal.TCommit, Tx: t.id, PrevLSN: t.lastLSN})
	if err != nil {
		t.mu.Unlock()
		return err
	}
	if err := t.m.log.Flush(lsn); err != nil {
		t.mu.Unlock()
		return err
	}
	if _, err := t.m.log.Append(&wal.Record{Type: wal.TEnd, Tx: t.id}); err != nil {
		t.mu.Unlock()
		return err
	}
	t.state = Committed
	t.lastLSN = lsn
	t.mu.Unlock()
	// Publication order: record the commit in the as-of index (hook) while
	// this writer's X locks still exclude other writers of the same pages,
	// then advance the version clock so new snapshots can observe it, then
	// release locks.
	if h := t.m.commitHook; h != nil {
		h(t.id, lsn)
	}
	t.m.noteCommit(lsn)
	t.finish()
	if t.m.hooks != nil {
		_ = t.m.hooks.Fire(hooks.EvTxCommit, t.id)
	}
	t.m.mu.Lock()
	t.m.commits++
	t.m.mu.Unlock()
	return nil
}

// Abort rolls the transaction back at runtime: it walks the update chain in
// reverse, restores before-images through the pager, writes CLRs, then logs
// abort+end and releases locks.
func (t *Tx) Abort() error {
	t.mu.Lock()
	if t.state != Active && t.state != Prepared {
		t.mu.Unlock()
		return ErrNotActive
	}
	next := t.lastLSN
	t.mu.Unlock()

	// The records to undo may still be buffered; force through this
	// transaction's last record so ReadRecord sees the chain — no need to
	// wait on other transactions' unforced tails beyond it.
	if err := t.m.log.Flush(next); err != nil {
		return err
	}
	buf := make([]byte, page.Size)
	for next != 0 {
		rec, err := t.m.log.ReadRecord(next)
		if err != nil {
			return fmt.Errorf("tx %d: abort read at %d: %w", t.id, next, err)
		}
		switch rec.Type {
		case wal.TUpdate:
			if len(rec.Before) > 0 && t.m.pager != nil {
				if err := t.m.pager.ReadPage(rec.Page, buf); err != nil {
					return err
				}
				copy(buf[rec.Off:], rec.Before)
				// The update record being undone covers this restore: its
				// before-image is exactly the bytes going back. The CLR
				// below re-describes them for redo.
				walcheck.NoteUpdate(rec.Page)
				//bess:walorder ignore=undo restores a before-image whose update record is already durable; the CLR appended below re-logs the restore for redo
				if err := t.m.pager.WritePage(rec.Page, buf); err != nil {
					return err
				}
			}
			if _, err := t.m.log.Append(&wal.Record{
				Type: wal.TCLR, Tx: t.id, Page: rec.Page, Off: rec.Off,
				After: rec.Before, UndoNext: rec.PrevLSN,
			}); err != nil {
				return err
			}
			next = rec.PrevLSN
		case wal.TCLR:
			next = rec.UndoNext
		default:
			next = rec.PrevLSN
		}
	}
	lsn, err := t.m.log.Append(&wal.Record{Type: wal.TAbort, Tx: t.id})
	if err != nil {
		return err
	}
	if _, err := t.m.log.Append(&wal.Record{Type: wal.TEnd, Tx: t.id}); err != nil {
		return err
	}
	if err := t.m.log.Flush(lsn); err != nil {
		return err
	}
	t.mu.Lock()
	t.state = Aborted
	t.mu.Unlock()
	if h := t.m.abortHook; h != nil {
		h(t.id)
	}
	t.finish()
	if t.m.hooks != nil {
		_ = t.m.hooks.Fire(hooks.EvTxAbort, t.id)
	}
	t.m.mu.Lock()
	t.m.aborts++
	t.m.mu.Unlock()
	return nil
}

// Prepare logs and forces a prepare record (2PC participant vote). The
// transaction holds its locks until the decision.
func (t *Tx) Prepare() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return ErrNotActive
	}
	lsn, err := t.m.log.Append(&wal.Record{Type: wal.TPrepare, Tx: t.id, PrevLSN: t.lastLSN})
	if err != nil {
		return err
	}
	if err := t.m.log.Flush(lsn); err != nil {
		return err
	}
	t.state = Prepared
	t.lastLSN = lsn
	return nil
}

// finish releases locks and removes the tx from the active table.
func (t *Tx) finish() {
	t.m.locks.ReleaseAll(lock.TxID(t.id))
	t.m.mu.Lock()
	delete(t.m.active, t.id)
	t.m.mu.Unlock()
	if t.m.hooks != nil {
		_ = t.m.hooks.Fire(hooks.EvLockRelease, t.id)
	}
}

// ActiveSnapshot returns checkpoint entries for all live transactions.
func (m *Manager) ActiveSnapshot() ([]wal.CkptTx, []wal.CkptPage) {
	m.mu.Lock()
	txs := make([]*Tx, 0, len(m.active))
	for _, t := range m.active {
		txs = append(txs, t)
	}
	m.mu.Unlock()
	var at []wal.CkptTx
	var dp []wal.CkptPage
	seen := make(map[page.ID]bool)
	for _, t := range txs {
		t.mu.Lock()
		at = append(at, wal.CkptTx{Tx: t.id, LastLSN: t.lastLSN})
		for pid, lsn := range t.dirty {
			if !seen[pid] {
				seen[pid] = true
				dp = append(dp, wal.CkptPage{Page: pid, RecLSN: lsn})
			}
		}
		t.mu.Unlock()
	}
	return at, dp
}

// Checkpoint writes a fuzzy checkpoint of the live state.
func (m *Manager) Checkpoint() (page.LSN, error) {
	at, dp := m.ActiveSnapshot()
	return wal.Checkpoint(m.log, at, dp)
}

// Counts reports cumulative commits and aborts.
func (m *Manager) Counts() (commits, aborts int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commits, m.aborts
}

// ActiveCount returns the number of live transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
