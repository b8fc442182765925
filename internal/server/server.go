// Package server implements the BeSS server (paper §3): it owns storage
// areas and provides distributed transaction management, concurrency
// control, and recovery for the databases stored in them. Clients cache
// data between transactions; consistency is maintained with the callback
// locking algorithm. Commits use the write-ahead log; distributed commits
// run two-phase commit with the server as a participant.
//
// The same Server value serves three configurations: linked directly into
// an application (the "open server" of §1 — trusted code calls methods),
// fronted by the RPC loop (ServePeer) for remote clients, and wrapped by a
// node server.
package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bess/internal/area"
	"bess/internal/hooks"
	"bess/internal/lock"
	"bess/internal/lockcheck"
	"bess/internal/oid"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
	"bess/internal/tx"
	"bess/internal/wal"
	"bess/internal/walcheck"
)

// Errors returned by the server.
var (
	ErrNoArea      = errors.New("server: no such storage area")
	ErrNoSegment   = errors.New("server: no such segment")
	ErrNotLocked   = errors.New("server: transaction does not hold the required lock")
	ErrCallback    = errors.New("server: callback revocation timed out")
	ErrUnknownTx   = errors.New("server: unknown transaction")
	ErrTooLarge    = errors.New("server: object exceeds transparent large-object limit")
	ErrShutdown    = errors.New("server: shut down")
	errUnknownName = errors.New("server: unknown client")
)

// CallbackFunc revokes a client's cached copy of seg; refused=true means a
// live transaction is using it and the server must wait.
type CallbackFunc func(seg proto.SegKey) (refused bool, err error)

type clientHandle struct {
	id       uint32
	name     string
	callback CallbackFunc
}

// Stats are cumulative server counters (experiment E6 reads them).
type Stats struct {
	Messages         int64 // client requests handled
	SlottedFetches   int64
	DataFetches      int64
	LargeFetches     int64
	Commits          int64
	Aborts           int64
	Callbacks        int64
	CallbackRefusals int64
	PagesWritten     int64
	SnapFetches      int64 // as-of segment fetches served to snapshots
	AsOfRecordsRead  int64 // WAL records read by as-of reconstruction

	// WAL counters (group commit, experiment E11): Syncs stays far below
	// Commits under concurrency because committers share fsyncs.
	WALAppends        int64
	WALFlushes        int64
	WALSyncs          int64
	WALGroupedCommits int64
}

// Server is one BeSS server.
//
// Locking is striped per concern so fetches, lock calls, and commits from
// different clients do not contend on one server-wide mutex: areaMu guards
// the area table (read-mostly), clientMu the client registry, copyMu the
// cached-copy table, and the active-transaction map is the sharded txs
// table. None of these locks is ever held while acquiring another; the
// permitted nesting order, should one ever be introduced, is declared in
// lockorder.go and enforced by cmd/bess-vet and `-tags lockcheck` builds.
type Server struct {
	host uint16
	dir  string // "" = in-memory

	areaMu lockcheck.RWMutex
	areas  map[uint32]*area.Area // guarded by areaMu

	clientMu   lockcheck.Mutex
	clients    map[uint32]*clientHandle // guarded by clientMu
	nextClient uint32                   // guarded by clientMu

	copyMu lockcheck.Mutex
	copies map[proto.SegKey]map[uint32]bool // guarded by copyMu

	// The snapshot registry is copy-on-write: writers (open/close, rare)
	// mutate the map under snapMu and publish an immutable copy to
	// snapView; readers (snapEntryOf, on every SnapFetchSeg) load the view
	// with no lock at all — the snapshot read path must stay lock-free.
	// born is published the same way: segments created while a snapshot
	// was open, each with the id of the newest snapshot opened before it.
	snapMu    lockcheck.Mutex
	snapshots map[uint64]*snapEntry                   // guarded by snapMu
	lastSnap  uint64                                  // guarded by snapMu; newest snapshot id issued
	born      map[proto.SegKey]uint64                 // guarded by snapMu
	snapView  atomic.Pointer[map[uint64]*snapEntry]   // immutable published copy
	bornView  atomic.Pointer[map[proto.SegKey]uint64] // immutable published copy

	txs txTable

	closed atomic.Bool

	// Silent-corruption state (corrupt.go). These are plain (unranked)
	// mutexes: none is ever held while taking a ranked server lock.
	quarMu        sync.Mutex
	quarantined   map[proto.SegKey]string // guarded by quarMu
	repairMu      sync.Mutex              // serializes WAL-replay repairs
	scrubMu       sync.Mutex
	scrubStarted  bool          // guarded by scrubMu
	scrubStop     chan struct{} // created at open; closed once by StopScrub
	scrubDone     chan struct{} // closed by the scrubber goroutine on exit
	scrubStopOnce sync.Once
	scrubPaused   atomic.Bool
	scrubEvery    time.Duration // set before the scrubber starts
	scrubPace     time.Duration // set before the scrubber starts
	scrubCtr      struct {
		segsChecked, pagesVerified, corruptions, repaired, quarantined atomic.Int64
	}

	// media, when non-nil, supplies the durable devices instead of dir
	// (OpenMedia: fault-injection harnesses run the full stack over
	// simulated stores).
	media *Media

	cat   *catalog
	log   *wal.Log
	locks *lock.Manager
	txm   *tx.Manager
	asof  *asOfIndex
	hk    *hooks.Registry

	nextTx atomic.Uint64

	stats struct {
		messages, slottedFetches, dataFetches, largeFetches atomic.Int64
		commits, aborts, callbacks, refusals, pagesWritten  atomic.Int64
		snapFetches, asOfRecords, walRebuilds               atomic.Int64
	}

	// CallbackTimeout bounds revocation waits (paper: timeouts detect
	// distributed deadlock).
	CallbackTimeout time.Duration
}

// NewMem creates an in-memory server (tests, benches).
func NewMem(host uint16) *Server {
	s, err := open("", host)
	if err != nil {
		panic(err) // memory backing cannot fail
	}
	return s
}

// Open creates or reopens a file-backed server rooted at dir, running
// ARIES restart over its log.
func Open(dir string, host uint16) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return open(dir, host)
}

// Media supplies the durable devices for OpenMedia: a WAL backing plus a
// factory invoked for each storage area the server attaches. It lets fault
// harnesses (experiment E19) run the full server stack — commit, WAL,
// checksums, repair — over simulated media with injected corruption. The
// catalog stays in memory: a Media server's metadata does not survive it.
type Media struct {
	Log     wal.Backing
	NewArea func(id uint32) (area.Store, error)
}

// OpenMedia creates a server over the given devices (see Media).
func OpenMedia(m Media, host uint16) (*Server, error) {
	s, err := open("", host)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(m.Log)
	if err != nil {
		return nil, err
	}
	s.log = log
	s.media = &m
	// Rebind the managers to the real log (open("") wired a throwaway
	// in-memory one), and the as-of index to the new tx manager.
	s.txm = tx.NewManager(s.log, s.locks, s, s.hk)
	s.wireAsOf()
	return s, nil
}

func open(dir string, host uint16) (*Server, error) {
	var inDoubt map[uint64]page.LSN // prepared branches restart recovery adopted
	s := &Server{
		host:            host,
		dir:             dir,
		areas:           make(map[uint32]*area.Area),
		clients:         make(map[uint32]*clientHandle),
		copies:          make(map[proto.SegKey]map[uint32]bool),
		locks:           lock.NewManager(),
		hk:              hooks.NewRegistry(),
		CallbackTimeout: 2 * time.Second,
	}
	s.areaMu.Init("Server.areaMu", rankAreaMu)
	s.clientMu.Init("Server.clientMu", rankClientMu)
	s.copyMu.Init("Server.copyMu", rankCopyMu)
	s.txs.init()
	s.scrubStop = make(chan struct{})
	s.scrubDone = make(chan struct{})
	s.locks.DefaultTimeout = 5 * time.Second
	var err error
	if dir == "" {
		s.cat = newCatalog("")
		s.log = wal.NewMem()
	} else {
		s.cat, err = loadCatalog(catalogPath(dir))
		if err != nil {
			return nil, err
		}
		s.log, err = wal.OpenFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			return nil, err
		}
		// Open every known area.
		for _, aid := range s.cat.areaIDs() {
			a, err := area.OpenFile(s.areaPath(aid))
			if err != nil {
				return nil, fmt.Errorf("server: open area %d: %w", aid, err)
			}
			s.areas[aid] = a
		}
		// Restart: repeat history, roll back losers; in-doubt 2PC branches
		// are adopted below so the coordinator's decision can complete them.
		st, err := wal.Recover(s.log, s)
		if err != nil {
			return nil, fmt.Errorf("server: recovery: %w", err)
		}
		s.txm = tx.NewManager(s.log, s.locks, s, s.hk)
		for _, id := range st.InDoubt {
			s.txs.put(id, s.txm.AdoptPrepared(id, st.InDoubtLast[id]), 0)
		}
		inDoubt = st.InDoubtLast
	}
	if s.txm == nil {
		s.txm = tx.NewManager(s.log, s.locks, s, s.hk)
	}
	s.snapMu.Init("Server.snapMu", rankSnapMu)
	s.snapshots = make(map[uint64]*snapEntry)
	s.born = make(map[proto.SegKey]uint64)
	s.wireAsOf()
	// Adopted in-doubt branches keep their after-images on disk until the
	// decision: snapshots must reconstruct past them.
	if err := s.asof.reindexPrepared(s.log, inDoubt); err != nil {
		return nil, fmt.Errorf("server: re-index in-doubt updates: %w", err)
	}
	s.nextTx.Store(uint64(host)<<48 | 1)
	return s, nil
}

// wireAsOf attaches the as-of index over the WAL (DESIGN.md §7) to
// the current tx manager, fed by the commit and abort hooks. The version
// clock restarts above every logged commit.
func (s *Server) wireAsOf() {
	s.asof = newAsOfIndex(s.txm)
	s.txm.SetCommitHook(s.onCommit)
	s.txm.SetAbortHook(s.onAbort)
	if nl := s.log.NextLSN(); nl > 0 {
		s.txm.SeedCommitStamp(nl - 1)
	}
}

// onCommit publishes txID's commit at lsn to the as-of index. It runs from
// the tx commit hook, before the writer's locks release.
func (s *Server) onCommit(txID uint64, lsn page.LSN) {
	s.asof.committed(txID, lsn)
}

// onAbort retires txID from the as-of index once its undo is done (or its
// commit failed). The log tail marks when the rollback finished.
func (s *Server) onAbort(txID uint64) {
	s.asof.rolledBack(txID, s.log.NextLSN())
}

func (s *Server) areaPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("area-%d.bess", id))
}

// Host returns the server's host number (embedded in OIDs).
func (s *Server) Host() uint16 { return s.host }

// SetLockTimeout adjusts how long lock acquisitions wait before the
// timeout-based (distributed) deadlock detection gives up (paper §3).
func (s *Server) SetLockTimeout(d time.Duration) { s.locks.DefaultTimeout = d }

// Hooks exposes the server's hook registry ("value added" code registers
// commit counters, compression, etc.).
func (s *Server) Hooks() *hooks.Registry { return s.hk }

// Log exposes the WAL (checkpointing, tools).
func (s *Server) Log() *wal.Log { return s.log }

// Snapshot returns cumulative statistics.
func (s *Server) Snapshot() Stats {
	ls := s.log.Stats()
	return Stats{
		Messages:         s.stats.messages.Load(),
		SlottedFetches:   s.stats.slottedFetches.Load(),
		DataFetches:      s.stats.dataFetches.Load(),
		LargeFetches:     s.stats.largeFetches.Load(),
		Commits:          s.stats.commits.Load(),
		Aborts:           s.stats.aborts.Load(),
		Callbacks:        s.stats.callbacks.Load(),
		CallbackRefusals: s.stats.refusals.Load(),
		PagesWritten:     s.stats.pagesWritten.Load(),
		SnapFetches:      s.stats.snapFetches.Load(),
		AsOfRecordsRead:  s.stats.asOfRecords.Load(),

		WALAppends:        ls.Appends,
		WALFlushes:        ls.Flushes,
		WALSyncs:          ls.Syncs,
		WALGroupedCommits: ls.GroupedCommits,
	}
}

// --- wal.Pager over the storage areas ---

// lookupArea returns the open area with the given id, or nil.
func (s *Server) lookupArea(id uint32) *area.Area {
	s.areaMu.RLock()
	a := s.areas[id]
	s.areaMu.RUnlock()
	return a
}

// ReadPage implements wal.Pager.
func (s *Server) ReadPage(id page.ID, buf []byte) error {
	a := s.lookupArea(uint32(id.Area))
	if a == nil {
		return ErrNoArea
	}
	return a.ReadPage(id.Page, buf)
}

// Write-ahead ordering (DESIGN.md §4f). The server package opts into
// bess-vet's walorder analyzer: every call to Server.WritePage — the
// page-store choke point for logged mutations — must be dominated on its
// path by a WAL append (directly, or through a callee like tx.Tx.LogUpdate
// whose call-graph summary proves one), and every call to
// Server.WritePage must be preceded in the same function by an
// asOfIndex.add of the record it applies: a snapshot reconstruction that
// read the new page must find the record whose before-image undoes it.
// The walcheck build tag enforces the same log-before-data contract at
// runtime (internal/walcheck).
//
//bess:walorder
//bess:walsink Server.WritePage
//bess:walorder capture=asOfIndex.add mutate=Server.WritePage

// WritePage implements wal.Pager. This is the page-store choke point for
// every logged mutation: under `-tags walcheck` the store asserts that a
// covering log record was appended first (internal/walcheck).
func (s *Server) WritePage(id page.ID, data []byte) error {
	a := s.lookupArea(uint32(id.Area))
	if a == nil {
		return ErrNoArea
	}
	walcheck.NoteWrite(id)
	s.stats.pagesWritten.Add(1)
	return a.WritePage(id.Page, data)
}

// --- client registry ---

// Hello implements proto.Conn.
func (s *Server) Hello(name string) (uint32, error) {
	if s.closed.Load() {
		return 0, ErrShutdown
	}
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	s.nextClient++
	id := s.nextClient
	s.clients[id] = &clientHandle{id: id, name: name}
	return id, nil
}

// SetCallback installs the revocation path for a client (in-process clients
// pass a closure; ServePeer wires the RPC callback). The parameter is the
// raw function type so client code can wire it through a small interface
// without importing this package.
func (s *Server) SetCallback(client uint32, cb func(proto.SegKey) (bool, error)) error {
	s.clientMu.Lock()
	defer s.clientMu.Unlock()
	h := s.clients[client]
	if h == nil {
		return errUnknownName
	}
	h.callback = cb
	return nil
}

// Disconnect drops a client: its cached copies are forgotten, its live
// transactions aborted, and its open snapshots closed (unpinning the
// version watermark).
func (s *Server) Disconnect(client uint32) {
	s.closeClientSnaps(client)
	doomed := s.txs.takeOwned(client)
	s.copyMu.Lock()
	for seg, set := range s.copies {
		delete(set, client)
		if len(set) == 0 {
			delete(s.copies, seg)
		}
	}
	s.copyMu.Unlock()
	s.clientMu.Lock()
	delete(s.clients, client)
	s.clientMu.Unlock()
	for _, t := range doomed {
		_ = t.Abort()
	}
}

// --- databases, areas, segments ---

// OpenDB implements proto.Conn.
func (s *Server) OpenDB(name string, create bool) (uint32, uint16, error) {
	s.stats.messages.Add(1)
	if m, ok := s.cat.dbByName(name); ok {
		return m.ID, s.host, nil
	}
	if !create {
		return 0, 0, fmt.Errorf("server: no database %q", name)
	}
	m, err := s.cat.createDB(name)
	if err != nil {
		return 0, 0, err
	}
	if _, err := s.AddArea(m.ID); err != nil {
		return 0, 0, err
	}
	_ = s.hk.Fire(hooks.EvDatabaseOpen, name)
	return m.ID, s.host, nil
}

// AddArea implements proto.Conn: attach one more storage area to db.
func (s *Server) AddArea(db uint32) (uint32, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return 0, err
	}
	aid, err := s.cat.allocAreaID(m)
	if err != nil {
		return 0, err
	}
	var a *area.Area
	if s.media != nil {
		var st area.Store
		if st, err = s.media.NewArea(aid); err == nil {
			a, err = area.Create(st, page.AreaID(aid), 1, true)
		}
	} else if s.dir == "" {
		a, err = area.NewMem(page.AreaID(aid), 1, true)
	} else {
		a, err = area.CreateFile(s.areaPath(aid), page.AreaID(aid), 1)
	}
	if err != nil {
		return 0, err
	}
	s.areaMu.Lock()
	s.areas[aid] = a
	s.areaMu.Unlock()
	return aid, nil
}

// NewFileID implements proto.Conn.
func (s *Server) NewFileID(db uint32) (uint32, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return 0, err
	}
	s.cat.mu.Lock()
	defer s.cat.mu.Unlock()
	id := m.NextFile
	m.NextFile++
	if err := s.cat.persistLocked(); err != nil {
		return 0, err
	}
	return id, nil
}

// NewTx implements proto.Conn.
func (s *Server) NewTx() (uint64, error) {
	s.stats.messages.Add(1)
	return s.nextTx.Add(1), nil
}

// RegisterType implements proto.Conn.
func (s *Server) RegisterType(db uint32, t proto.TypeInfo) (proto.TypeInfo, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return proto.TypeInfo{}, err
	}
	return s.cat.registerType(m, t)
}

// Types implements proto.Conn.
func (s *Server) Types(db uint32) ([]proto.TypeInfo, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return nil, err
	}
	return s.cat.types(m), nil
}

// areaOf returns the db's area chosen by hint (-1 = first).
func (s *Server) areaOf(m *dbMeta, hint int) (*area.Area, uint32, error) {
	s.cat.mu.Lock()
	if len(m.Areas) == 0 {
		s.cat.mu.Unlock()
		return nil, 0, ErrNoArea
	}
	idx := 0
	if hint >= 0 {
		idx = hint % len(m.Areas)
	}
	aid := m.Areas[idx]
	s.cat.mu.Unlock()
	a := s.lookupArea(aid)
	if a == nil {
		return nil, 0, ErrNoArea
	}
	return a, aid, nil
}

// CreateSegment implements proto.Conn: allocate slotted + data runs and
// write the initial images.
func (s *Server) CreateSegment(db uint32, fileID uint32, slottedPages, dataPages, areaHint int) (proto.SegKey, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return proto.SegKey{}, err
	}
	if fileID == 0 {
		return proto.SegKey{}, errors.New("server: fileID 0 is reserved")
	}
	a, aid, err := s.areaOf(m, areaHint)
	if err != nil {
		return proto.SegKey{}, err
	}
	slStart, _, err := a.AllocSegment(slottedPages)
	if err != nil {
		return proto.SegKey{}, err
	}
	dtStart, dtGranted, err := a.AllocSegment(dataPages)
	if err != nil {
		_ = a.FreeSegment(slStart)
		return proto.SegKey{}, err
	}
	seg := segment.New(fileID, slottedPages, dtGranted, page.AreaID(aid), dtStart)
	// Attach the zeroed data section so the initial encode records its
	// checksum: the segment is verifiable from its very first read.
	seg.Data = make([]byte, dtGranted*page.Size)
	img := seg.EncodeSlotted()
	for i := 0; i < slottedPages; i++ {
		if err := a.WritePage(slStart+page.No(i), img[i*page.Size:(i+1)*page.Size]); err != nil {
			return proto.SegKey{}, err
		}
	}
	zero := make([]byte, page.Size)
	for i := 0; i < dtGranted; i++ {
		if err := a.WritePage(dtStart+page.No(i), zero); err != nil {
			return proto.SegKey{}, err
		}
	}
	key := proto.SegKey{Area: aid, Start: int64(slStart)}
	// The initial images are not logged: snapshots opened before this point
	// must not see the segment at all (its pages may be a freed run's).
	s.noteCreated(key)
	if err := s.cat.addSegment(m, &segMeta{Seg: key, FileID: fileID, SlottedPages: slottedPages}); err != nil {
		return proto.SegKey{}, err
	}
	return key, nil
}

// SegInfo implements proto.Conn.
func (s *Server) SegInfo(seg proto.SegKey) (int, error) {
	s.stats.messages.Add(1)
	sm, _, ok := s.cat.segMetaOf(seg)
	if !ok {
		return 0, ErrNoSegment
	}
	return sm.SlottedPages, nil
}

// readSeg loads, decodes, and checksum-verifies a segment's slotted image
// plus overflow. Corruption is repaired from WAL history in place, or the
// segment is quarantined (corrupt.go).
func (s *Server) readSeg(seg proto.SegKey) (*segment.Seg, []byte, []byte, error) {
	sm, _, ok := s.cat.segMetaOf(seg)
	if !ok {
		return nil, nil, nil, ErrNoSegment
	}
	return s.readSegVerified(seg, sm)
}

// readSegOnce is the raw one-attempt read under readSegVerified: the
// slotted image is verified by DecodeSlotted (header + slot-region CRCs),
// the overflow bytes against the header's recorded section checksum. On
// corruption the decoded header (when available) rides along so the caller
// can locate the damaged range.
//
//bess:verified
func (s *Server) readSegOnce(seg proto.SegKey, sm *segMeta) (*segment.Seg, []byte, []byte, error) {
	a := s.lookupArea(seg.Area)
	if a == nil {
		return nil, nil, nil, ErrNoArea
	}
	img := make([]byte, sm.SlottedPages*page.Size)
	for i := 0; i < sm.SlottedPages; i++ {
		if err := a.ReadPage(page.No(seg.Start)+page.No(i), img[i*page.Size:(i+1)*page.Size]); err != nil {
			return nil, nil, nil, err
		}
	}
	dec, err := segment.DecodeSlotted(img)
	if err != nil {
		var ce *page.CorruptError
		if errors.As(err, &ce) {
			ce.Area, ce.Page = page.AreaID(seg.Area), page.No(seg.Start)
		}
		return nil, nil, nil, err
	}
	var over []byte
	if dec.Hdr.OverPages > 0 {
		oa := s.lookupArea(uint32(dec.Hdr.OverArea))
		if oa == nil {
			return nil, nil, nil, ErrNoArea
		}
		over = make([]byte, int(dec.Hdr.OverPages)*page.Size)
		for i := 0; i < int(dec.Hdr.OverPages); i++ {
			if err := oa.ReadPage(dec.Hdr.OverStart+page.No(i), over[i*page.Size:(i+1)*page.Size]); err != nil {
				return nil, nil, nil, err
			}
		}
		if err := dec.VerifyOverflow(over); err != nil {
			return dec, nil, nil, err
		}
		dec.Overflow = over
	}
	return dec, img, over, nil
}

// recordCopy notes that client caches seg so callbacks reach it.
func (s *Server) recordCopy(client uint32, seg proto.SegKey) {
	if client == 0 {
		return
	}
	s.copyMu.Lock()
	set := s.copies[seg]
	if set == nil {
		set = make(map[uint32]bool)
		s.copies[seg] = set
	}
	set[client] = true
	s.copyMu.Unlock()
}

// readData loads the data segment named by a decoded slotted header.
func (s *Server) readData(dec *segment.Seg) ([]byte, error) {
	da := s.lookupArea(uint32(dec.Hdr.DataArea))
	if da == nil {
		return nil, ErrNoArea
	}
	data := make([]byte, int(dec.Hdr.DataPages)*page.Size)
	for i := 0; i < int(dec.Hdr.DataPages); i++ {
		if err := da.ReadPage(dec.Hdr.DataStart+page.No(i), data[i*page.Size:(i+1)*page.Size]); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// FetchSlotted implements proto.Conn; it also records the client in the
// copy table so callbacks reach it.
func (s *Server) FetchSlotted(client uint32, seg proto.SegKey) ([]byte, []byte, error) {
	s.stats.messages.Add(1)
	s.stats.slottedFetches.Add(1)
	_, img, over, err := s.readSeg(seg)
	if err != nil {
		return nil, nil, err
	}
	s.recordCopy(client, seg)
	_ = s.hk.Fire(hooks.EvSegmentFault, seg)
	return img, over, nil
}

// FetchData implements proto.Conn.
func (s *Server) FetchData(client uint32, seg proto.SegKey) ([]byte, error) {
	s.stats.messages.Add(1)
	s.stats.dataFetches.Add(1)
	dec, _, _, err := s.readSeg(seg)
	if err != nil {
		return nil, err
	}
	return s.readDataVerified(seg, dec)
}

// FetchSeg implements proto.Conn: the combined cold-touch fetch. One message
// returns what a FetchSlotted + FetchData pair would, so a first access to a
// segment costs a single round trip. Both per-kind fetch counters still
// advance (E3's fault accounting counts segment faults, not messages), but
// the message counter advances once.
func (s *Server) FetchSeg(client uint32, seg proto.SegKey) ([]byte, []byte, []byte, error) {
	s.stats.messages.Add(1)
	s.stats.slottedFetches.Add(1)
	s.stats.dataFetches.Add(1)
	dec, img, over, err := s.readSeg(seg)
	if err != nil {
		return nil, nil, nil, err
	}
	data, err := s.readDataVerified(seg, dec)
	if err != nil {
		return nil, nil, nil, err
	}
	s.recordCopy(client, seg)
	_ = s.hk.Fire(hooks.EvSegmentFault, seg)
	return img, over, data, nil
}

// FetchLarge implements proto.Conn: the descriptor names the run holding
// the object's pages.
func (s *Server) FetchLarge(client uint32, seg proto.SegKey, slot int) ([]byte, error) {
	s.stats.messages.Add(1)
	s.stats.largeFetches.Add(1)
	dec, _, _, err := s.readSeg(seg)
	if err != nil {
		return nil, err
	}
	if !dec.Live(slot) || dec.Slots[slot].Kind != segment.KindLarge {
		return nil, segment.ErrBadSlot
	}
	d, err := dec.Descriptor(slot, largeDescSize)
	if err != nil {
		return nil, err
	}
	areaID, start, pages, stored, crc := decodeLargeDesc(d)
	buf, err := s.readLargeVerified(seg, areaID, start, pages, stored, crc)
	if err != nil {
		return nil, err
	}
	content := buf[:stored]
	// Decompression and similar user transforms run here (§2.4); they must
	// restore the object's logical size.
	if err := s.hk.FireData(hooks.EvObjectFetch, seg, &content); err != nil {
		return nil, err
	}
	if len(content) != int(dec.Slots[slot].Size) {
		return nil, fmt.Errorf("server: fetch hooks produced %d bytes, object is %d", len(content), dec.Slots[slot].Size)
	}
	return content, nil
}

// Resolve implements proto.Conn.
func (s *Server) Resolve(db uint32, headerOff uint64) (proto.SegKey, int, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return proto.SegKey{}, 0, err
	}
	areaID := uint32(headerOff >> 32)
	byteOff := headerOff & 0xFFFFFFFF
	key, ok := s.cat.resolve(m, areaID, byteOff)
	if !ok {
		return proto.SegKey{}, 0, ErrNoSegment
	}
	rel := byteOff - uint64(key.Start)*page.Size
	slot, err := segment.SlotIndexForOffset(rel)
	if err != nil {
		return proto.SegKey{}, 0, err
	}
	return key, slot, nil
}

// SegmentsOf implements proto.Conn.
func (s *Server) SegmentsOf(db uint32, fileID uint32) ([]proto.SegKey, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return nil, err
	}
	return s.cat.segmentsOf(m, fileID), nil
}

// Released implements proto.Conn: the client dropped its cached copy.
func (s *Server) Released(client uint32, seg proto.SegKey) error {
	s.stats.messages.Add(1)
	s.dropCopy(seg, client)
	return nil
}

// dropCopy forgets one client's cached copy of seg.
func (s *Server) dropCopy(seg proto.SegKey, client uint32) {
	s.copyMu.Lock()
	if set := s.copies[seg]; set != nil {
		delete(set, client)
		if len(set) == 0 {
			delete(s.copies, seg)
		}
	}
	s.copyMu.Unlock()
}

// --- locking with callbacks ---

func segLockName(seg proto.SegKey) lock.Name {
	return lock.Name{Kind: lock.KindSegment, Q0: uint64(seg.Area), Q1: uint64(seg.Start)}
}

// ensureTx returns the live server-side branch for id, creating it lazily.
func (s *Server) ensureTx(client uint32, id uint64) *tx.Tx {
	return s.txs.ensure(id, client, func() *tx.Tx { return s.txm.BeginWithID(id) })
}

// Lock implements proto.Conn. Exclusive locks drive callback revocation of
// other clients' cached copies (callback locking, §3).
func (s *Server) Lock(client uint32, txid uint64, seg proto.SegKey, mode proto.LockMode) error {
	s.stats.messages.Add(1)
	t := s.ensureTx(client, txid)
	lm := lock.Mode(mode)
	if err := t.Lock(segLockName(seg), lm); err != nil {
		return err
	}
	if lm == lock.X || lm == lock.SIX || lm == lock.IX {
		if err := s.revokeCopies(seg, client); err != nil {
			return err
		}
	}
	return nil
}

// LockObject implements proto.Conn: software object-level locking
// (§2.3/[27]). The object lock is taken under the matching intention lock
// on its segment. It is a *logical* lock: cache revocation still happens
// when an actual write escalates to the segment X lock, so readers of
// other objects in the segment keep their copies.
func (s *Server) LockObject(client uint32, txid uint64, seg proto.SegKey, slot int, mode proto.LockMode) error {
	s.stats.messages.Add(1)
	t := s.ensureTx(client, txid)
	lm := lock.Mode(mode)
	intent := lock.IS
	if lm == lock.X || lm == lock.IX || lm == lock.SIX {
		intent = lock.IX
	}
	if err := t.Lock(segLockName(seg), intent); err != nil {
		return err
	}
	return t.Lock(lock.ObjectName(seg.Area, seg.Start, slot), lm)
}

// revokeCopies calls back every other client caching seg until they all
// comply or the timeout passes.
func (s *Server) revokeCopies(seg proto.SegKey, except uint32) error {
	deadline := time.Now().Add(s.CallbackTimeout)
	for {
		s.copyMu.Lock()
		cids := make([]uint32, 0, len(s.copies[seg]))
		for cid := range s.copies[seg] {
			if cid != except {
				cids = append(cids, cid)
			}
		}
		s.copyMu.Unlock()
		var targets []*clientHandle
		s.clientMu.Lock()
		var unreachable []uint32
		for _, cid := range cids {
			if h := s.clients[cid]; h != nil && h.callback != nil {
				targets = append(targets, h)
			} else {
				unreachable = append(unreachable, cid)
			}
		}
		s.clientMu.Unlock()
		// No way to reach them (disconnected): forget the copies.
		for _, cid := range unreachable {
			s.dropCopy(seg, cid)
		}
		if len(targets) == 0 {
			return nil
		}
		anyRefused := false
		for _, h := range targets {
			s.stats.callbacks.Add(1)
			refused, err := h.callback(seg)
			if err != nil {
				// Client unreachable: drop it.
				s.Disconnect(h.id)
				continue
			}
			if refused {
				s.stats.refusals.Add(1)
				anyRefused = true
				continue
			}
			s.dropCopy(seg, h.id)
		}
		if !anyRefused {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrCallback
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- commit / abort / 2PC ---

// applySegImages logs and applies the shipped images under t, allocating
// new runs when a segment's data or overflow grew (server-side relocation).
func (s *Server) applySegImages(t *tx.Tx, segs []proto.SegImage) error {
	for _, si := range segs {
		if err := s.applyOne(t, si); err != nil {
			return err
		}
	}
	// No force here: the single force of the commit/prepare record's LSN
	// (tx.Commit / tx.Prepare) covers these buffered records, so a commit
	// never pays a second fsync or waits on another transaction's tail.
	return nil
}

func (s *Server) applyOne(t *tx.Tx, si proto.SegImage) error {
	sm, _, ok := s.cat.segMetaOf(si.Seg)
	if !ok {
		return ErrNoSegment
	}
	newSeg, err := segment.DecodeSlotted(si.Slotted)
	if err != nil {
		return fmt.Errorf("server: commit image: %w", err)
	}
	cur, _, _, err := s.readSeg(si.Seg)
	if err != nil {
		return err
	}
	// Grown data segment? Allocate a fresh run and point the header at it
	// — on-the-fly relocation; existing references are unaffected because
	// they name slots.
	if int(newSeg.Hdr.DataPages) > int(cur.Hdr.DataPages) ||
		newSeg.Hdr.DataStart != cur.Hdr.DataStart {
		a, aid, err2 := s.areaForAlloc(si.Seg.Area)
		if err2 != nil {
			return err2
		}
		start, granted, err2 := a.AllocSegment(int(newSeg.Hdr.DataPages))
		if err2 != nil {
			return err2
		}
		newSeg.Hdr.DataArea = page.AreaID(aid)
		newSeg.Hdr.DataStart = start
		newSeg.Hdr.DataPages = uint32(granted)
		if len(si.Data) < granted*page.Size {
			grown := make([]byte, granted*page.Size)
			copy(grown, si.Data)
			si.Data = grown
		}
	} else {
		newSeg.Hdr.DataArea = cur.Hdr.DataArea
		newSeg.Hdr.DataStart = cur.Hdr.DataStart
	}
	// Overflow growth likewise.
	if int(newSeg.Hdr.OverPages) > int(cur.Hdr.OverPages) {
		a, aid, err2 := s.areaForAlloc(si.Seg.Area)
		if err2 != nil {
			return err2
		}
		start, granted, err2 := a.AllocSegment(int(newSeg.Hdr.OverPages))
		if err2 != nil {
			return err2
		}
		newSeg.Hdr.OverArea = page.AreaID(aid)
		newSeg.Hdr.OverStart = start
		newSeg.Hdr.OverPages = uint32(granted)
		if len(si.Overflow) < granted*page.Size {
			grown := make([]byte, granted*page.Size)
			copy(grown, si.Overflow)
			si.Overflow = grown
		}
	} else if cur.Hdr.OverPages > 0 {
		newSeg.Hdr.OverArea = cur.Hdr.OverArea
		newSeg.Hdr.OverStart = cur.Hdr.OverStart
		newSeg.Hdr.OverPages = cur.Hdr.OverPages
	}
	// The server is authoritative for section checksums: a client-encoded
	// header may carry CRCs that predate server-side relocation padding, or
	// cover a cached data section this commit does not ship. Recompute over
	// the bytes that will actually land on disk; carry the current
	// (verified) CRC forward when the section is untouched.
	if len(si.Data) > 0 {
		if n := int(newSeg.Hdr.DataPages) * page.Size; len(si.Data) >= n {
			newSeg.Hdr.DataCRC = page.Checksum(si.Data[:n])
			newSeg.Hdr.CRCFlags |= segment.CRCData
		} else {
			newSeg.Hdr.CRCFlags &^= segment.CRCData // partial ship: unverifiable
		}
	} else if cur.Hdr.CRCFlags&segment.CRCData != 0 {
		newSeg.Hdr.DataCRC = cur.Hdr.DataCRC
		newSeg.Hdr.CRCFlags |= segment.CRCData
	} else {
		newSeg.Hdr.CRCFlags &^= segment.CRCData
	}
	if len(si.Overflow) > 0 && newSeg.Hdr.OverPages > 0 {
		if n := int(newSeg.Hdr.OverPages) * page.Size; len(si.Overflow) >= n {
			newSeg.Hdr.OverCRC = page.Checksum(si.Overflow[:n])
			newSeg.Hdr.CRCFlags |= segment.CRCOver
		} else {
			newSeg.Hdr.CRCFlags &^= segment.CRCOver
		}
	} else if cur.Hdr.OverPages > 0 && newSeg.Hdr.OverStart == cur.Hdr.OverStart &&
		cur.Hdr.CRCFlags&segment.CRCOver != 0 {
		newSeg.Hdr.OverCRC = cur.Hdr.OverCRC
		newSeg.Hdr.CRCFlags |= segment.CRCOver
	} else {
		newSeg.Hdr.CRCFlags &^= segment.CRCOver
	}
	// Re-encode with the final geometry and write everything with logging.
	img := newSeg.EncodeSlotted()
	if err := s.logAndApply(t, si.Seg.Area, page.No(si.Seg.Start), img[:sm.SlottedPages*page.Size]); err != nil {
		return err
	}
	if len(si.Data) > 0 {
		n := int(newSeg.Hdr.DataPages) * page.Size
		if n > len(si.Data) {
			n = len(si.Data)
		}
		if err := s.logAndApply(t, uint32(newSeg.Hdr.DataArea), newSeg.Hdr.DataStart, si.Data[:n]); err != nil {
			return err
		}
	}
	if len(si.Overflow) > 0 && newSeg.Hdr.OverPages > 0 {
		n := int(newSeg.Hdr.OverPages) * page.Size
		if n > len(si.Overflow) {
			n = len(si.Overflow)
		}
		if err := s.logAndApply(t, uint32(newSeg.Hdr.OverArea), newSeg.Hdr.OverStart, si.Overflow[:n]); err != nil {
			return err
		}
	}
	return nil
}

// areaForAlloc picks the area for a relocation allocation (same area as the
// slotted segment).
func (s *Server) areaForAlloc(areaID uint32) (*area.Area, uint32, error) {
	a := s.lookupArea(areaID)
	if a == nil {
		return nil, 0, ErrNoArea
	}
	return a, areaID, nil
}

// logAndApply writes page images with full-page update records, skipping
// pages whose bytes are unchanged.
func (s *Server) logAndApply(t *tx.Tx, areaID uint32, start page.No, data []byte) error {
	n := (len(data) + page.Size - 1) / page.Size
	before := make([]byte, page.Size)
	for i := 0; i < n; i++ {
		pid := page.ID{Area: page.AreaID(areaID), Page: start + page.No(i)}
		end := (i + 1) * page.Size
		if end > len(data) {
			end = len(data)
		}
		after := data[i*page.Size : end]
		if err := s.ReadPage(pid, before); err != nil {
			return err
		}
		if string(before[:len(after)]) == string(after) {
			continue
		}
		lsn, err := t.LogUpdate(pid, 0, before[:len(after)], after)
		if err != nil {
			return err
		}
		s.asof.add(t.ID(), pid, lsn)
		full := before
		copy(full, after)
		if err := s.WritePage(pid, full); err != nil {
			return err
		}
		// Reset scratch for the next page read.
		before = make([]byte, page.Size)
	}
	return nil
}

// requireLocks verifies the tx holds X (or SIX) on each shipped segment.
func (s *Server) requireLocks(txid uint64, segs []proto.SegImage) error {
	for _, si := range segs {
		m := s.locks.Holds(lock.TxID(txid), segLockName(si.Seg))
		if m != lock.X && m != lock.SIX {
			return fmt.Errorf("%w: %v holds %v on %v", ErrNotLocked, txid, m, si.Seg)
		}
	}
	return nil
}

// Commit implements proto.Conn: single-server commit of the shipped images.
func (s *Server) Commit(client uint32, txid uint64, segs []proto.SegImage) error {
	s.stats.messages.Add(1)
	if len(segs) > 0 {
		if err := s.requireLocks(txid, segs); err != nil {
			return err
		}
	}
	t := s.ensureTx(client, txid)
	if err := s.applySegImages(t, segs); err != nil {
		_ = t.Abort()
		s.forgetTx(txid)
		return err
	}
	if err := t.Commit(); err != nil {
		// The branch is dead either way: drop it so the txid does not leak
		// in the active table, and retire it from the as-of sources so
		// snapshot reads do not wait on a commit that will never publish.
		s.onAbort(txid)
		s.forgetTx(txid)
		return err
	}
	s.forgetTx(txid)
	s.stats.commits.Add(1)
	return nil
}

// Abort implements proto.Conn.
func (s *Server) Abort(client uint32, txid uint64) error {
	s.stats.messages.Add(1)
	t := s.txs.get(txid)
	if t == nil {
		return nil // nothing ever reached the server: trivial abort
	}
	err := t.Abort()
	s.forgetTx(txid)
	s.stats.aborts.Add(1)
	return err
}

// Prepare implements proto.Conn: 2PC phase-1 vote. Images are logged and
// applied; the branch stays prepared (locks held) until Decide.
func (s *Server) Prepare(client uint32, txid uint64, segs []proto.SegImage) error {
	s.stats.messages.Add(1)
	if len(segs) > 0 {
		if err := s.requireLocks(txid, segs); err != nil {
			return err
		}
	}
	t := s.ensureTx(client, txid)
	if err := s.applySegImages(t, segs); err != nil {
		_ = t.Abort()
		s.forgetTx(txid)
		return err
	}
	return t.Prepare()
}

// Decide implements proto.Conn: 2PC phase-2 decision delivery.
func (s *Server) Decide(txid uint64, commit bool) error {
	s.stats.messages.Add(1)
	t := s.txs.get(txid)
	if t == nil {
		return ErrUnknownTx
	}
	var err error
	if commit {
		err = t.Commit()
		s.stats.commits.Add(1)
	} else {
		err = t.Abort()
		s.stats.aborts.Add(1)
	}
	s.forgetTx(txid)
	return err
}

func (s *Server) forgetTx(txid uint64) {
	s.txs.forget(txid)
}

// --- large objects ---

// largeDescSize is the byte size of a transparent large object descriptor:
// (area, start, pages, stored bytes, content CRC-32C). The stored byte
// count may differ from the slot's logical object size when flush-side
// hooks (compression) transformed the content; the checksum covers exactly
// the stored bytes, so FetchLarge verifies the run end to end before any
// fetch-side hook runs.
const largeDescSize = 24

func encodeLargeDesc(areaID uint32, start page.No, pages, stored int, crc uint32) []byte {
	d := make([]byte, largeDescSize)
	d[0] = byte(areaID >> 24)
	d[1] = byte(areaID >> 16)
	d[2] = byte(areaID >> 8)
	d[3] = byte(areaID)
	v := uint64(start)
	for i := 0; i < 8; i++ {
		d[4+i] = byte(v >> (56 - 8*i))
	}
	p := uint32(pages)
	d[12] = byte(p >> 24)
	d[13] = byte(p >> 16)
	d[14] = byte(p >> 8)
	d[15] = byte(p)
	s := uint32(stored)
	d[16] = byte(s >> 24)
	d[17] = byte(s >> 16)
	d[18] = byte(s >> 8)
	d[19] = byte(s)
	d[20] = byte(crc >> 24)
	d[21] = byte(crc >> 16)
	d[22] = byte(crc >> 8)
	d[23] = byte(crc)
	return d
}

func decodeLargeDesc(d []byte) (areaID uint32, start int64, pages, stored int, crc uint32) {
	areaID = uint32(d[0])<<24 | uint32(d[1])<<16 | uint32(d[2])<<8 | uint32(d[3])
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(d[4+i])
	}
	start = int64(v)
	pages = int(uint32(d[12])<<24 | uint32(d[13])<<16 | uint32(d[14])<<8 | uint32(d[15]))
	stored = int(uint32(d[16])<<24 | uint32(d[17])<<16 | uint32(d[18])<<8 | uint32(d[19]))
	crc = uint32(d[20])<<24 | uint32(d[21])<<16 | uint32(d[22])<<8 | uint32(d[23])
	return
}

// CreateLarge implements proto.Conn: store a transparent large object
// (≤64KB) and add its descriptor slot to seg, transactionally.
func (s *Server) CreateLarge(client uint32, txid uint64, seg proto.SegKey, typ uint32, content []byte) (int, error) {
	s.stats.messages.Add(1)
	if len(content) > segment.MaxTransparentLarge {
		return 0, ErrTooLarge
	}
	logicalSize := len(content)
	// Flush-side user transforms (compression, §2.4) may change the stored
	// byte count; the slot keeps the logical size.
	if err := s.hk.FireData(hooks.EvObjectFlush, seg, &content); err != nil {
		return 0, err
	}
	t := s.ensureTx(client, txid)
	if err := t.Lock(segLockName(seg), lock.X); err != nil {
		return 0, err
	}
	if err := s.revokeCopies(seg, client); err != nil {
		return 0, err
	}
	dec, _, _, err := s.readSeg(seg)
	if err != nil {
		return 0, err
	}
	sm, _, _ := s.cat.segMetaOf(seg)
	// Store the content in its own run.
	a, aid, err := s.areaForAlloc(seg.Area)
	if err != nil {
		return 0, err
	}
	pages := (len(content) + page.Size - 1) / page.Size
	if pages == 0 {
		pages = 1
	}
	start, granted, err := a.AllocSegment(pages)
	if err != nil {
		return 0, err
	}
	padded := make([]byte, granted*page.Size)
	copy(padded, content)
	if err := s.logAndApply(t, aid, start, padded); err != nil {
		return 0, err
	}
	// Grow overflow if needed and add the descriptor slot.
	if dec.Hdr.OverPages == 0 {
		oStart, oGranted, err2 := a.AllocSegment(1)
		if err2 != nil {
			return 0, err2
		}
		dec.EnsureOverflow(oGranted)
		dec.Hdr.OverArea = page.AreaID(aid)
		dec.Hdr.OverStart = oStart
		dec.Hdr.OverPages = uint32(oGranted)
	}
	slot, err := dec.CreateDescriptor(segment.KindLarge, segment.TypeID(typ), uint32(logicalSize),
		encodeLargeDesc(aid, start, granted, len(content), page.Checksum(content)))
	if err != nil {
		return 0, err
	}
	img := dec.EncodeSlotted()
	if err := s.logAndApply(t, seg.Area, page.No(seg.Start), img[:sm.SlottedPages*page.Size]); err != nil {
		return 0, err
	}
	if err := s.logAndApply(t, uint32(dec.Hdr.OverArea), dec.Hdr.OverStart, dec.Overflow); err != nil {
		return 0, err
	}
	// Force only this transaction's records (WAL rule for the page writes
	// above), not every other committer's unforced tail.
	if err := s.log.Flush(t.LastLSN()); err != nil {
		return 0, err
	}
	return slot, nil
}

// --- raw runs (very-large-object substrate) ---

// AllocRun implements proto.Conn.
func (s *Server) AllocRun(db uint32, nPages int) (uint32, int64, int, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return 0, 0, 0, err
	}
	a, aid, err := s.areaOf(m, -1)
	if err != nil {
		return 0, 0, 0, err
	}
	start, granted, err := a.AllocSegment(nPages)
	if err != nil {
		return 0, 0, 0, err
	}
	return aid, int64(start), granted, nil
}

// FreeRun implements proto.Conn.
func (s *Server) FreeRun(db uint32, areaID uint32, start int64) error {
	s.stats.messages.Add(1)
	a := s.lookupArea(areaID)
	if a == nil {
		return ErrNoArea
	}
	return a.FreeSegment(page.No(start))
}

// ReadRun implements proto.Conn.
func (s *Server) ReadRun(db uint32, areaID uint32, start int64, nPages int) ([]byte, error) {
	s.stats.messages.Add(1)
	a := s.lookupArea(areaID)
	if a == nil {
		return nil, ErrNoArea
	}
	buf := make([]byte, nPages*page.Size)
	for i := 0; i < nPages; i++ {
		if err := a.ReadPage(page.No(start)+page.No(i), buf[i*page.Size:(i+1)*page.Size]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// WriteRun implements proto.Conn.
func (s *Server) WriteRun(db uint32, areaID uint32, start int64, data []byte) error {
	s.stats.messages.Add(1)
	a := s.lookupArea(areaID)
	if a == nil {
		return ErrNoArea
	}
	n := len(data) / page.Size
	for i := 0; i < n; i++ {
		if err := a.WritePage(page.No(start)+page.No(i), data[i*page.Size:(i+1)*page.Size]); err != nil {
			return err
		}
	}
	return nil
}

// --- names ---

// NameBind implements proto.Conn.
func (s *Server) NameBind(db uint32, name string, o oid.OID) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	d, err := s.cat.namesDir(m)
	if err != nil {
		return err
	}
	if err := d.Bind(name, o); err != nil {
		return err
	}
	return s.cat.persistNames()
}

// NameLookup implements proto.Conn.
func (s *Server) NameLookup(db uint32, name string) (oid.OID, error) {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return oid.Nil, err
	}
	d, err := s.cat.namesDir(m)
	if err != nil {
		return oid.Nil, err
	}
	return d.Lookup(name)
}

// NameUnbind implements proto.Conn.
func (s *Server) NameUnbind(db uint32, name string) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	d, err := s.cat.namesDir(m)
	if err != nil {
		return err
	}
	if err := d.Unbind(name); err != nil {
		return err
	}
	return s.cat.persistNames()
}

// NameRemoveOID implements proto.Conn: referential integrity on object
// deletion.
func (s *Server) NameRemoveOID(db uint32, o oid.OID) error {
	s.stats.messages.Add(1)
	m, err := s.cat.db(db)
	if err != nil {
		return err
	}
	d, err := s.cat.namesDir(m)
	if err != nil {
		return err
	}
	if d.ObjectRemoved(o) {
		return s.cat.persistNames()
	}
	return nil
}

// DBInfo summarizes one database for tools.
type DBInfo struct {
	ID       uint32
	Name     string
	Areas    []uint32
	Types    int
	Segments int
	Files    int
	Roots    []string
}

// InspectInfo is the server summary bess-inspect prints.
type InspectInfo struct {
	Databases []DBInfo
}

// Inspect reports the catalog contents.
func (s *Server) Inspect() InspectInfo {
	var out InspectInfo
	s.cat.mu.Lock()
	metas := make([]*dbMeta, 0, len(s.cat.ByID))
	for _, m := range s.cat.ByID {
		metas = append(metas, m)
	}
	s.cat.mu.Unlock()
	for _, m := range metas {
		di := DBInfo{ID: m.ID, Name: m.Name, Areas: append([]uint32(nil), m.Areas...)}
		s.cat.mu.Lock()
		di.Types = len(m.Types)
		di.Segments = len(m.Segments)
		di.Files = len(m.Files)
		s.cat.mu.Unlock()
		if d, err := s.cat.namesDir(m); err == nil {
			di.Roots = d.Names()
		}
		out.Databases = append(out.Databases, di)
	}
	return out
}

// Checkpoint writes a fuzzy checkpoint to the log.
func (s *Server) Checkpoint() error {
	_, err := s.txm.Checkpoint()
	return err
}

// Close flushes and shuts down.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.StopScrub()
	s.areaMu.RLock()
	areas := make([]*area.Area, 0, len(s.areas))
	for _, a := range s.areas {
		areas = append(areas, a)
	}
	s.areaMu.RUnlock()
	if err := s.log.Close(); err != nil {
		return err
	}
	for _, a := range areas {
		if err := a.Close(); err != nil {
			return err
		}
	}
	s.locks.Close()
	return nil
}

var _ proto.Conn = (*Server)(nil)
