package server

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"bess/internal/area"
	"bess/internal/page"
	"bess/internal/proto"
	"bess/internal/segment"
)

// segImage is one segment's three sections, as FetchSeg serves them.
type segImage struct{ sl, ov, data []byte }

func fetchImage(t *testing.T, s *Server, key proto.SegKey) segImage {
	t.Helper()
	sl, ov, data, err := s.FetchSeg(0, key)
	if err != nil {
		t.Fatal(err)
	}
	return segImage{sl, ov, data}
}

func (a segImage) equal(sl, ov, data []byte) bool {
	return bytes.Equal(a.sl, sl) && bytes.Equal(a.ov, ov) && bytes.Equal(a.data, data)
}

// decodeLive decodes key's current image for a client-side edit.
func decodeLive(t *testing.T, s *Server, key proto.SegKey) *segment.Seg {
	t.Helper()
	im := fetchImage(t, s, key)
	seg, err := segment.DecodeSlotted(im.sl)
	if err != nil {
		t.Fatal(err)
	}
	seg.Overflow, seg.Data = im.ov, im.data
	return seg
}

// commitEdit commits edit's change to key in a fresh transaction.
func commitEdit(t *testing.T, s *Server, cl uint32, key proto.SegKey, edit func(*segment.Seg)) {
	t.Helper()
	seg := decodeLive(t, s, key)
	edit(seg)
	txid, _ := s.NewTx()
	if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
	if err := s.Commit(cl, txid, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
}

// setObject0 overwrites object 0 with body, creating it if absent.
func setObject0(t *testing.T, body []byte) func(*segment.Seg) {
	return func(seg *segment.Seg) {
		if seg.Live(0) {
			if err := seg.UpdateObject(0, body); err != nil {
				t.Fatal(err)
			}
			return
		}
		if _, err := seg.CreateObject(0, body); err != nil {
			t.Fatal(err)
		}
	}
}

// asOfLen returns the as-of index's live entry count.
func asOfLen(s *Server) int {
	s.asof.mu.Lock()
	defer s.asof.mu.Unlock()
	return s.asof.n
}

// assertAsOfDrained fails unless the as-of index and the creation records
// hold nothing.
func assertAsOfDrained(t *testing.T, s *Server) {
	t.Helper()
	ix := s.asof
	ix.mu.Lock()
	n, pages, txs := ix.n, len(ix.pages), len(ix.txs)
	ix.mu.Unlock()
	if n != 0 || pages != 0 || txs != 0 {
		t.Fatalf("as-of index not drained: %d entries, %d pages, %d transactions", n, pages, txs)
	}
	if born := s.bornView.Load(); born != nil && len(*born) != 0 {
		t.Fatalf("%d segment creation records outlived every snapshot", len(*born))
	}
}

// TestAsOfSegmentReuseUnderSnapshot: a segment created over a freed run
// after a snapshot opened did not exist at the snapshot's stamp, even with
// no commit in between — the as-of read must say so instead of serving the
// new segment's unlogged initial image.
func TestAsOfSegmentReuseUnderSnapshot(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")

	// A raw run is written and freed before the snapshot opens.
	aid, start, granted, err := s.AllocRun(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun(db, aid, start, bytes.Repeat([]byte{0xEE}, granted*page.Size)); err != nil {
		t.Fatal(err)
	}
	if err := s.FreeRun(db, aid, start); err != nil {
		t.Fatal(err)
	}
	old, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.CreateSegment(db, 1, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if key.Area != aid || key.Start != start {
		t.Fatalf("premise: segment %v did not reuse the freed run %d/%d", key, aid, start)
	}
	if _, _, _, err := s.SnapFetchSeg(cl, old, key); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("snapshot opened before the creation: err = %v, want ErrNoSegment", err)
	}

	// A snapshot opened after the creation sees the initial image, and
	// keeps seeing it across a commit, while the older one still sees no
	// segment.
	initial := fetchImage(t, s, key)
	after, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	commitEdit(t, s, cl, key, setObject0(t, []byte("v1......")))
	sl, ov, data, err := s.SnapFetchSeg(cl, after, key)
	if err != nil || !initial.equal(sl, ov, data) {
		t.Fatalf("snapshot opened after the creation: err = %v, image matches = %v", err, err == nil && initial.equal(sl, ov, data))
	}
	if _, _, _, err := s.SnapFetchSeg(cl, old, key); !errors.Is(err, ErrNoSegment) {
		t.Fatalf("snapshot opened before the creation, after a commit: err = %v, want ErrNoSegment", err)
	}
	for _, id := range []uint64{old, after} {
		if err := s.SnapClose(cl, id); err != nil {
			t.Fatal(err)
		}
	}
	assertAsOfDrained(t, s)
}

// unsyncedLog and unsyncedArea are file devices that skip fsync.
type unsyncedLog struct{ *os.File }

func (unsyncedLog) Sync() error { return nil }
func (l unsyncedLog) Size() int64 {
	fi, err := l.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

type unsyncedArea struct{ *os.File }

func (unsyncedArea) Sync() error { return nil }
func (a unsyncedArea) Size() (int64, error) {
	fi, err := a.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// TestAsOfRecordCountFlat is the count gate on as-of reconstruction: the
// WAL records it reads depend on the pages reconstructed, not on how much
// unrelated history the log holds.
func TestAsOfRecordCountFlat(t *testing.T) {
	// Ten thousand commits log ~160 MB of full-page images: keep them in
	// unsynced temp files rather than in a memory log.
	dir := t.TempDir()
	file := func(name string) *os.File {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s, err := OpenMedia(Media{
		Log: unsyncedLog{file("wal.log")},
		NewArea: func(id uint32) (area.Store, error) {
			return unsyncedArea{file(fmt.Sprintf("area-%d", id))}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")
	a := commitOne(t, s, db, []byte("a0......"))
	b := commitOne(t, s, db, []byte("b0......"))
	snap, stamp, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	want := fetchImage(t, s, a)
	commitEdit(t, s, cl, a, setObject0(t, []byte("a1......")))

	churned := 0
	churn := func(n int) {
		for ; churned < n; churned++ {
			body := []byte("b.......")
			body[1] = byte(churned)
			commitEdit(t, s, cl, b, setObject0(t, body))
		}
	}
	reconstruct := func() (records int64, pages int) {
		before := s.Snapshot().AsOfRecordsRead
		sl, ov, data, err := s.reconstructAsOf(a, page.LSN(stamp))
		if err != nil {
			t.Fatal(err)
		}
		if !want.equal(sl, ov, data) {
			t.Fatalf("after %d unrelated commits: reconstructed image differs from the snapshot's", churned)
		}
		return s.Snapshot().AsOfRecordsRead - before, (len(sl) + len(ov) + len(data)) / page.Size
	}

	churn(10)
	r10, pages := reconstruct()
	churn(10_000)
	r10k, _ := reconstruct()
	if r10 == 0 || r10 > int64(pages) {
		t.Fatalf("reconstructing %d pages read %d WAL records, want 1..%d", pages, r10, pages)
	}
	if r10k != r10 {
		t.Fatalf("WAL records per reconstruction: %d after 10 unrelated commits, %d after 10,000", r10, r10k)
	}
	if err := s.SnapClose(cl, snap); err != nil {
		t.Fatal(err)
	}
	assertAsOfDrained(t, s)
}

// TestAsOfIndexDrains: the index holds only what open snapshots and
// in-flight transactions need, and empties once every snapshot closes and
// every transaction ends — across commit, rollback with CLRs, 2PC in both
// directions, and a restart that adopts an in-doubt branch.
func TestAsOfIndexDrains(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")
	key := commitOne(t, s, db, []byte("v0......"))
	assertAsOfDrained(t, s) // no snapshot: gone at commit

	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	commitEdit(t, s, cl, key, setObject0(t, []byte("v1......")))
	if asOfLen(s) == 0 {
		t.Fatal("commit under an open snapshot indexed nothing")
	}

	// Rollback with CLRs: CreateLarge logs at once, Abort undoes it.
	txid, _ := s.NewTx()
	if _, err := s.CreateLarge(cl, txid, key, 0, bytes.Repeat([]byte("L"), 5000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort(cl, txid); err != nil {
		t.Fatal(err)
	}
	// 2PC: one branch decided commit, one decided abort.
	for _, commit := range []bool{true, false} {
		txid, _ := s.NewTx()
		if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		if err := s.Prepare(cl, txid, []proto.SegImage{overwriteImage(t, s, key, []byte("2pc....."))}); err != nil {
			t.Fatal(err)
		}
		if err := s.Decide(txid, commit); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SnapClose(cl, snap); err != nil {
		t.Fatal(err)
	}
	assertAsOfDrained(t, s)

	// The same mix with no snapshot open drains as each transaction ends.
	txid, _ = s.NewTx()
	if _, err := s.CreateLarge(cl, txid, key, 0, []byte("large")); err != nil {
		t.Fatal(err)
	}
	if asOfLen(s) == 0 {
		t.Fatal("in-flight CreateLarge indexed nothing")
	}
	if err := s.Abort(cl, txid); err != nil {
		t.Fatal(err)
	}
	assertAsOfDrained(t, s)

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := Open(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := s1.OpenDB("d", true)
		if err != nil {
			t.Fatal(err)
		}
		cl, _ := s1.Hello("c")
		key := commitOne(t, s1, db, []byte("v0......"))
		want := fetchImage(t, s1, key)
		txid, _ := s1.NewTx()
		if err := s1.Lock(cl, txid, key, proto.LockX); err != nil {
			t.Fatal(err)
		}
		if err := s1.Prepare(cl, txid, []proto.SegImage{overwriteImage(t, s1, key, []byte("doubt..."))}); err != nil {
			t.Fatal(err)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if asOfLen(s2) == 0 {
			t.Fatal("restart did not re-index the in-doubt branch")
		}
		snap, stamp, err := s2.SnapOpen(cl)
		if err != nil {
			t.Fatal(err)
		}
		sl, ov, data, err := s2.reconstructAsOf(key, page.LSN(stamp))
		if err != nil || !want.equal(sl, ov, data) {
			t.Fatalf("as-of read past the in-doubt branch: err = %v, want the pre-prepare image", err)
		}
		if err := s2.Decide(txid, true); err != nil {
			t.Fatal(err)
		}
		if err := s2.SnapClose(cl, snap); err != nil {
			t.Fatal(err)
		}
		assertAsOfDrained(t, s2)
	})
}

// TestAsOfDifferential drives random interleavings of commits, growth with
// data relocation, 2PC branches, large-object rollbacks, segment creations
// and snapshot opens/closes, reconstructing from the WAL alone (the version
// chain is bypassed by calling reconstructAsOf directly). Every image must
// equal the bytes the segment held when the snapshot opened. The seed comes
// from the test name, so a failure replays.
func TestAsOfDifferential(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s.Hello("c")

	type snapshot struct {
		id    uint64
		stamp page.LSN
		want  map[proto.SegKey]segImage
	}
	live := make(map[proto.SegKey]segImage) // committed images
	var keys []proto.SegKey
	pending := make(map[proto.SegKey]uint64) // prepared branches, by segment
	var snaps []*snapshot

	create := func() {
		key, err := s.CreateSegment(db, 1, 1, 1, -1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		live[key] = fetchImage(t, s, key)
	}
	body := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// edit makes a random change: overwrite object 0, or add an object,
	// doubling the data section when it is full (the server relocates it).
	edit := func(seg *segment.Seg) {
		if seg.Live(0) && seg.Slots[0].Kind == segment.KindSmall && rng.Intn(2) == 0 {
			cur, err := seg.ObjectBytes(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.UpdateObject(0, body(len(cur))); err != nil {
				t.Fatal(err)
			}
			return
		}
		b := body(16 + rng.Intn(1500))
		if _, err := seg.CreateObject(0, b); errors.Is(err, segment.ErrDataFull) {
			if err := seg.ResizeData(int(seg.Hdr.DataPages) * 2); err != nil {
				t.Fatal(err)
			}
			_, err = seg.CreateObject(0, b)
			if err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
	}
	// idle picks a segment with no prepared branch, or false.
	idle := func() (proto.SegKey, bool) {
		for _, i := range rng.Perm(len(keys)) {
			if _, busy := pending[keys[i]]; !busy {
				return keys[i], true
			}
		}
		return proto.SegKey{}, false
	}

	for i := 0; i < 3; i++ {
		create()
	}
	checks := 0
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); op {
		case 0, 1: // commit
			if key, ok := idle(); ok {
				commitEdit(t, s, cl, key, edit)
				live[key] = fetchImage(t, s, key)
			}
		case 2: // prepare a 2PC branch, decided later
			if key, ok := idle(); ok {
				seg := decodeLive(t, s, key)
				edit(seg)
				txid, _ := s.NewTx()
				if err := s.Lock(cl, txid, key, proto.LockX); err != nil {
					t.Fatal(err)
				}
				img := proto.SegImage{Seg: key, Slotted: seg.EncodeSlotted(), Overflow: seg.Overflow, Data: seg.Data}
				if err := s.Prepare(cl, txid, []proto.SegImage{img}); err != nil {
					t.Fatal(err)
				}
				pending[key] = txid
			}
		case 3: // decide a prepared branch
			for key, txid := range pending {
				commit := rng.Intn(2) == 0
				if err := s.Decide(txid, commit); err != nil {
					t.Fatal(err)
				}
				delete(pending, key)
				if got := fetchImage(t, s, key); commit {
					live[key] = got
				} else if !live[key].equal(got.sl, got.ov, got.data) {
					t.Fatalf("step %d: 2PC abort left %v changed", step, key)
				}
				break
			}
		case 4: // large object, committed or rolled back with CLRs
			if key, ok := idle(); ok {
				txid, _ := s.NewTx()
				if _, err := s.CreateLarge(cl, txid, key, 0, body(100+rng.Intn(6000))); err != nil {
					t.Fatal(err)
				}
				var err error
				if rng.Intn(2) == 0 {
					err = s.Commit(cl, txid, nil)
				} else {
					err = s.Abort(cl, txid)
				}
				if err != nil {
					t.Fatal(err)
				}
				live[key] = fetchImage(t, s, key)
			}
		case 5: // open a snapshot
			id, stamp, err := s.SnapOpen(cl)
			if err != nil {
				t.Fatal(err)
			}
			sn := &snapshot{id: id, stamp: page.LSN(stamp), want: make(map[proto.SegKey]segImage, len(live))}
			for k, im := range live {
				sn.want[k] = im
			}
			snaps = append(snaps, sn)
		case 6: // close a snapshot
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				if err := s.SnapClose(cl, snaps[i].id); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps[:i], snaps[i+1:]...)
			}
		case 7: // create a segment
			if len(keys) < 8 {
				create()
			}
		default: // reconstruct a segment as of an open snapshot
			if len(snaps) == 0 {
				continue
			}
			sn := snaps[rng.Intn(len(snaps))]
			key := keys[rng.Intn(len(keys))]
			want, existed := sn.want[key]
			if !existed {
				if _, _, _, err := s.SnapFetchSeg(cl, sn.id, key); !errors.Is(err, ErrNoSegment) {
					t.Fatalf("step %d: %v created after snapshot %d: err = %v, want ErrNoSegment", step, key, sn.id, err)
				}
				continue
			}
			sl, ov, data, err := s.reconstructAsOf(key, sn.stamp)
			if err != nil {
				t.Fatalf("step %d: reconstruct %v as of %d: %v", step, key, sn.stamp, err)
			}
			if !want.equal(sl, ov, data) {
				t.Fatalf("step %d: %v as of %d differs from the image captured at snapshot open", step, key, sn.stamp)
			}
			checks++
		}
	}
	if checks < 50 {
		t.Fatalf("only %d reconstructions checked", checks)
	}
	for key, txid := range pending {
		if err := s.Decide(txid, false); err != nil {
			t.Fatal(err)
		}
		delete(pending, key)
	}
	for _, sn := range snaps {
		if err := s.SnapClose(cl, sn.id); err != nil {
			t.Fatal(err)
		}
	}
	assertAsOfDrained(t, s)
}

// TestAsOfInDoubtBranch: after a restart adopts an in-doubt 2PC branch,
// its after-images are on disk but not committed, so a snapshot opened
// before the decision must read past them to the last committed image.
func TestAsOfInDoubtBranch(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := s1.OpenDB("d", true)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := s1.Hello("w")
	key, img := mkSegImage(t, s1, db, []byte("v1......"))
	tx1, _ := s1.NewTx()
	if err := s1.Lock(cl, tx1, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(cl, tx1, []proto.SegImage{img}); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s1.NewTx()
	if err := s1.Lock(cl, tx2, key, proto.LockX); err != nil {
		t.Fatal(err)
	}
	if err := s1.Prepare(cl, tx2, []proto.SegImage{overwriteImage(t, s1, key, []byte("v3......"))}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	cl, _ = s2.Hello("r")
	snap, _, err := s2.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s2, cl, snap, key); !bytes.Equal(got, []byte("v1......")) {
		t.Fatalf("snapshot read past an in-doubt branch = %q, want v1", got)
	}
	// The decision changes nothing for the open snapshot.
	if err := s2.Decide(tx2, true); err != nil {
		t.Fatal(err)
	}
	if got := snapObject(t, s2, cl, snap, key); !bytes.Equal(got, []byte("v1......")) {
		t.Fatalf("snapshot read after the commit decision = %q, want v1", got)
	}
	if err := s2.SnapClose(cl, snap); err != nil {
		t.Fatal(err)
	}
	assertAsOfDrained(t, s2)
}

// TestAsOfCorruptSlotted: rot on a slotted page reaches a snapshot reader
// as a checksum error, counted as a corruption, not as a missing segment.
func TestAsOfCorruptSlotted(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, _ := s.OpenDB("d", true)
	key := commitOne(t, s, db, []byte("rots under a snapshot"))
	cl, _ := s.Hello("r")
	snap, _, err := s.SnapOpen(cl)
	if err != nil {
		t.Fatal(err)
	}
	before := s.ScrubStatus().CorruptionsFound
	flipPageByte(t, s, key.Area, page.No(key.Start), segment.HeaderSize+3)
	_, _, _, err = s.SnapFetchSeg(cl, snap, key)
	if !errors.Is(err, segment.ErrChecksum) || errors.Is(err, ErrNoSegment) {
		t.Fatalf("snapshot read of a rotted slotted page: err = %v, want a checksum error", err)
	}
	var ce *page.CorruptError
	if !errors.As(err, &ce) || ce.Area != page.AreaID(key.Area) || ce.Page != page.No(key.Start) {
		t.Fatalf("corruption not located at the segment's slotted page: %v", err)
	}
	if got := s.ScrubStatus().CorruptionsFound; got != before+1 {
		t.Fatalf("corruptions counted = %d, want %d", got, before+1)
	}
	if err := s.SnapClose(cl, snap); err != nil {
		t.Fatal(err)
	}
}
