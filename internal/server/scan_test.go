package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bess/internal/goleak"
	"bess/internal/proto"
	"bess/internal/rpc"
)

// scanClient drives the raw scan protocol from the client end of a pipe:
// collect pushed batches, grant credits, and wait for the final batch.
type scanClient struct {
	p *rpc.Peer

	mu      sync.Mutex
	batches []*proto.ScanBatch
	done    chan struct{}
}

func newScanClient(p *rpc.Peer) *scanClient {
	c := &scanClient{p: p, done: make(chan struct{})}
	p.HandleStream("ScanData", func(stream uint64, body []byte) {
		sb, err := proto.DecodeScanBatch(body)
		if err != nil {
			panic(err)
		}
		c.mu.Lock()
		c.batches = append(c.batches, sb)
		last := sb.Last
		c.mu.Unlock()
		if last {
			close(c.done)
		}
	})
	return c
}

func (c *scanClient) wait(t *testing.T) []*proto.ScanBatch {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("no final scan batch arrived")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// TestScanCursorProtocol drives ScanStart/ScanCtl/ScanData over a pipe:
// every planned segment is pushed, batches respect the credit window, and
// the final batch is flagged.
func TestScanCursorProtocol(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("scandb", true)
	if err != nil {
		t.Fatal(err)
	}
	const fileID = 4
	var want []proto.SegKey
	for i := 0; i < 5; i++ {
		k, err := s.CreateSegment(db, fileID, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	ServePeer(s, sEnd)
	cli := newScanClient(cEnd)

	rb, err := cEnd.CallRaw("ScanStart", proto.AppendScanStartArgs(nil, 1, db, fileID, 8<<10))
	if err != nil {
		t.Fatal(err)
	}
	scanID, plan, err := proto.DecodeScanStartReply(rb)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(want) {
		t.Fatalf("plan has %d segments, want %d", len(plan), len(want))
	}
	for i, e := range plan {
		if e.Seg != want[i] {
			t.Fatalf("plan[%d] = %v, want %v", i, e.Seg, want[i])
		}
		if e.SlottedPages != 1 {
			t.Fatalf("plan[%d] slotted pages = %d, want 1", i, e.SlottedPages)
		}
	}
	// Nothing may be pushed before the first grant.
	time.Sleep(20 * time.Millisecond)
	cli.mu.Lock()
	if n := len(cli.batches); n != 0 {
		cli.mu.Unlock()
		t.Fatalf("%d batches pushed before any credit", n)
	}
	cli.mu.Unlock()

	if err := cEnd.SendStream("ScanCtl", scanID, proto.AppendScanCtl(nil, false, 1<<20)); err != nil {
		t.Fatal(err)
	}
	batches := cli.wait(t)
	got := make(map[proto.SegKey]bool)
	for i, sb := range batches {
		if sb.Seq != uint32(i) {
			t.Fatalf("batch %d has seq %d", i, sb.Seq)
		}
		if sb.Err != "" {
			t.Fatalf("batch %d carries error %q", i, sb.Err)
		}
		for j := range sb.Images {
			got[sb.Images[j].Seg] = true
		}
	}
	for _, k := range want {
		if !got[k] {
			t.Fatalf("segment %v never pushed", k)
		}
	}
}

// TestRunScanSkipsVanishedSegment checks the cursor race guard directly: a
// plan entry that no longer resolves (dropped between planning and the
// read) is skipped, not fatal.
func TestRunScanSkipsVanishedSegment(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("racedb", true)
	if err != nil {
		t.Fatal(err)
	}
	real1, err := s.CreateSegment(db, 2, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	real2, err := s.CreateSegment(db, 2, 1, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	phantom := proto.SegKey{Area: real1.Area, Start: 1 << 40}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	cli := newScanClient(cEnd)

	table := newScanTable()
	c := table.add(1, 8<<10, []proto.ScanSeg{
		{Seg: real1, SlottedPages: 1},
		{Seg: phantom, SlottedPages: 1},
		{Seg: real2, SlottedPages: 1},
	}, nil)
	c.grant(false, 1<<20)
	go s.runScan(sEnd, table, c)

	batches := cli.wait(t)
	var segs []proto.SegKey
	for _, sb := range batches {
		if sb.Err != "" {
			t.Fatalf("cursor reported error %q, want phantom skipped", sb.Err)
		}
		for j := range sb.Images {
			segs = append(segs, sb.Images[j].Seg)
		}
	}
	if len(segs) != 2 || segs[0] != real1 || segs[1] != real2 {
		t.Fatalf("pushed segments %v, want [%v %v]", segs, real1, real2)
	}
	// The Last batch is pushed by the cursor's sender goroutine, so the
	// client can observe it just before runScan's deferred removal runs.
	deadline := time.Now().Add(2 * time.Second)
	for table.lookup(c.id) != nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if table.lookup(c.id) != nil {
		t.Fatal("cursor not removed from table")
	}
	goleak.Check(t, "server.")
}

// TestScanCancelReleasesCursorGoroutines cancels a cursor whose sender is
// blocked waiting for credit and verifies the whole pipeline unwinds: the
// fetch loop stops, the sender drains, the cursor leaves the table, and
// (under -tags goleak) no server goroutine stays behind.
func TestScanCancelReleasesCursorGoroutines(t *testing.T) {
	s := NewMem(1)
	defer s.Close()
	db, _, err := s.OpenDB("canceldb", true)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]proto.ScanSeg, 0, 3)
	for i := 0; i < 3; i++ {
		k, err := s.CreateSegment(db, 3, 1, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		plan = append(plan, proto.ScanSeg{Seg: k, SlottedPages: 1})
	}

	cEnd, sEnd := rpc.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	var batches atomic.Int32
	cEnd.HandleStream("ScanData", func(stream uint64, body []byte) { batches.Add(1) })

	// One byte of credit: the overdraw escape lets the first batch out,
	// then the sender parks in waitCredit with the window deep in debt.
	table := newScanTable()
	c := table.add(1, 1, plan, nil)
	c.grant(false, 1)
	go s.runScan(sEnd, table, c)

	deadline := time.Now().Add(5 * time.Second)
	for batches.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no batch arrived before cancel")
		}
		time.Sleep(time.Millisecond)
	}
	c.cancel()
	for table.lookup(c.id) != nil {
		if time.Now().After(deadline) {
			t.Fatal("cancelled cursor never left the table")
		}
		time.Sleep(time.Millisecond)
	}
	goleak.Check(t, "server.")
}
