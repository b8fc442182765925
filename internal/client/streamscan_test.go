package client

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"bess/internal/fault"
	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
	"bess/internal/segment"
	"bess/internal/server"
	"bess/internal/swizzle"
	"bess/internal/vmem"
)

var blobType = segment.TypeDesc{Name: "ScanBlob", Size: 0}

// populateScanFile creates nSegs segments under fileID, each holding objsPer
// blob objects of blobLen bytes, in one committed transaction.
func populateScanFile(t *testing.T, s *Session, fileID uint32, nSegs, objsPer, blobLen int) []proto.SegKey {
	t.Helper()
	td, err := s.RegisterType(blobType)
	if err != nil {
		t.Fatal(err)
	}
	dataPages := (objsPer*(blobLen+16))/4096 + 2
	segs := make([]proto.SegKey, nSegs)
	for i := range segs {
		segs[i], err = s.CreateSegment(fileID, 1, dataPages, -1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for _, k := range segs {
		for j := 0; j < objsPer; j++ {
			if _, err := s.CreateObject(k, td.ID, make([]byte, blobLen)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return segs
}

func countStreamScan(t *testing.T, s *Session, fileID uint32) int {
	t.Helper()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatalf("StreamScan: %v", err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return n
}

func checkNoPinnedFrames(t *testing.T, s *Session) {
	t.Helper()
	if s.lastScan == nil {
		t.Fatal("no stream was used")
	}
	if n := s.lastScan.pinnedFrames(); n != 0 {
		t.Fatalf("%d pool frames still pinned after scan", n)
	}
}

func TestStreamScanVisitsAll(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, r := openRemote(t, srv, "scanner")
	const fileID, nSegs, objsPer = 7, 6, 20
	populateScanFile(t, s, fileID, nSegs, objsPer, 512)

	t.Run("warm", func(t *testing.T) {
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		checkNoPinnedFrames(t, s)
	})
	t.Run("cold", func(t *testing.T) {
		s.DropAllCached()
		batches := 0
		s.SetScanBatchHook(func(images, bytes int) { batches++ })
		defer s.SetScanBatchHook(nil)
		before := r.Calls()
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		// Begin costs one NewTx, the scan itself exactly one ScanStart:
		// every segment image arrives pushed, with zero per-segment RPCs.
		if calls := r.Calls() - before; calls > 3 {
			t.Fatalf("cold streaming scan issued %d RPCs, want <= 3", calls)
		}
		if batches == 0 {
			t.Fatal("batch hook never fired")
		}
		checkNoPinnedFrames(t, s)
	})
}

// TestStreamScanCancelMidStream aborts from the visitor callback and checks
// nothing leaks: no pinned frames, and the server cursor goroutine exits.
func TestStreamScanCancelMidStream(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	s, _ := openRemote(t, srv, "canceller")
	const fileID = 9
	populateScanFile(t, s, fileID, 8, 20, 512)
	s.DropAllCached()
	s.SetScanTuning(16<<10, 8<<10) // small window: the cursor must outlive many credit waits

	base := runtime.NumGoroutine()
	boom := errors.New("stop here")
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	n := 0
	err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
		n++
		if n == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the visitor's error", err)
	}
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	checkNoPinnedFrames(t, s)
	waitGoroutines(t, base)
	goleak.Check(t, "server.") // cursor and sender must both be gone
}

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want <= %d (cursor leaked?)", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openFaultRemote opens a session whose connection is wrapped server-side
// with the given fault plan.
func openFaultRemote(t *testing.T, srv *server.Server, name string, plan fault.ConnPlan) (*Session, *rpc.Peer, *rpc.Peer) {
	t.Helper()
	c1, c2 := net.Pipe()
	cli := rpc.NewPeer(c1)
	sp := rpc.NewPeer(fault.WrapConn(c2, plan))
	server.ServePeer(srv, sp)
	s, err := Open(NewRemote(cli), name, "testdb", false)
	if err != nil {
		t.Fatal(err)
	}
	return s, cli, sp
}

// TestStreamScanFaultInjection runs the streaming scan over connections
// with injected faults. Delays must not break it; a short write or a
// dropped connection must surface as an error — never a hang — and leave
// no pinned frames or goroutines behind.
func TestStreamScanFaultInjection(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	setup := openDirect(t, srv, "setup")
	const fileID, nSegs, objsPer = 11, 24, 14
	populateScanFile(t, setup, fileID, nSegs, objsPer, 1024)

	t.Run("delay", func(t *testing.T) {
		s, cli, _ := openFaultRemote(t, srv, "slow", fault.ConnPlan{
			ReadDelay: 200 * time.Microsecond, WriteDelay: 200 * time.Microsecond,
		})
		defer cli.Close()
		if n := countStreamScan(t, s, fileID); n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		checkNoPinnedFrames(t, s)
	})
	t.Run("shortwrite", func(t *testing.T) {
		base := runtime.NumGoroutine()
		// Session setup traffic fits well under the limit; the pushed
		// segment images (~350KB) cross it mid-stream.
		s, cli, _ := openFaultRemote(t, srv, "torn", fault.ConnPlan{ShortWriteAfter: 48 << 10})
		defer cli.Close()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error { return nil })
		if err == nil {
			t.Fatal("scan over a torn connection succeeded")
		}
		checkNoPinnedFrames(t, s)
		cli.Close()
		waitGoroutines(t, base)
		goleak.Check(t, "server.")
	})
	t.Run("drop", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s, cli, _ := openFaultRemote(t, srv, "dropped", fault.ConnPlan{DropAfterOps: 40})
		defer cli.Close()
		// Small window and batches: the stream needs many socket ops, so
		// the scheduled drop lands mid-stream, well past session setup.
		s.SetScanTuning(32<<10, 8<<10)
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		err := s.StreamScan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error { return nil })
		if err == nil {
			t.Fatal("scan over a dropped connection succeeded")
		}
		checkNoPinnedFrames(t, s)
		cli.Close()
		waitGoroutines(t, base)
		goleak.Check(t, "server.")
	})
}

// TestStreamScanParallelFiles streams two files concurrently over separate
// sessions — the multifile parallel-scan configuration of §10.
func TestStreamScanParallelFiles(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()
	writer, _ := openRemote(t, srv, "writer")
	const objs = 40
	populateScanFile(t, writer, 21, 4, objs/4, 512)
	populateScanFile(t, writer, 22, 4, objs/4, 512)

	type result struct {
		n   int
		err error
	}
	results := make(chan result, 2)
	for _, fileID := range []uint32{21, 22} {
		go func(fid uint32) {
			s, _ := openRemote(t, srv, "p-scan")
			if err := s.Begin(); err != nil {
				results <- result{0, err}
				return
			}
			n := 0
			err := s.StreamScan(fid, func(_ vmem.Addr, _ *swizzle.Object) error {
				n++
				return nil
			})
			if err == nil {
				err = s.Commit()
			}
			results <- result{n, err}
		}(fileID)
	}
	for i := 0; i < 2; i++ {
		res := <-results
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.n != objs {
			t.Fatalf("parallel scan visited %d, want %d", res.n, objs)
		}
	}
}

// TestScanSkipsDroppedSegment is the regression test for Session.Scan
// aborting when a listed segment vanishes before the cursor reaches it: a
// conn whose SegmentsOf reports one segment that does not exist.
func TestScanSkipsDroppedSegment(t *testing.T) {
	srv := server.NewMem(1)
	defer srv.Close()

	run := func(t *testing.T, conn proto.Conn, fileID uint32) {
		s, err := Open(conn, "skipper", "testdb", true)
		if err != nil {
			t.Fatal(err)
		}
		const nSegs, objsPer = 3, 8
		populateScanFile(t, s, fileID, nSegs, objsPer, 128)
		s.DropAllCached()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		n := 0
		err = s.Scan(fileID, func(_ vmem.Addr, _ *swizzle.Object) error {
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("Scan with a dropped segment: %v", err)
		}
		if n != nSegs*objsPer {
			t.Fatalf("visited %d objects, want %d", n, nSegs*objsPer)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("direct", func(t *testing.T) {
		run(t, phantomSegConn{srv}, 5)
	})
	t.Run("remote", func(t *testing.T) {
		cEnd, sEnd := rpc.Pipe()
		server.ServePeer(srv, sEnd)
		run(t, phantomSegConn{NewRemote(cEnd)}, 6)
	})
}

// phantomSegConn lists one extra segment that does not exist — the shape of
// a segment dropped between SegmentsOf and the fetch.
type phantomSegConn struct {
	proto.Conn
}

func (c phantomSegConn) SegmentsOf(db, fileID uint32) ([]proto.SegKey, error) {
	segs, err := c.Conn.SegmentsOf(db, fileID)
	if err != nil {
		return nil, err
	}
	// Splice the phantom into the middle so the scan must continue past it.
	out := append([]proto.SegKey(nil), segs[:len(segs)/2]...)
	out = append(out, proto.SegKey{Area: segs[0].Area, Start: 1 << 40})
	return append(out, segs[len(segs)/2:]...), nil
}
