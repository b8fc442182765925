// Lock hierarchy of the BeSS server.
//
// This file is the single authoritative declaration of the order in which
// the server-side locks may nest. The directive below is machine-readable:
// cmd/bess-vet parses it and statically rejects any function whose call
// graph acquires these locks in a violating nested order, and the rank
// constants feed the same order to the runtime checker
// (internal/lockcheck, active under the `lockcheck` build tag).
//
// Names are unqualified Type.field pairs; "a < b" means a goroutine holding
// a may acquire b, never the reverse. Locks of equal rank (the 32 tx table
// shards all share txShard.mu) must not nest at all. Locks not named here
// (area.Area.mu, the lock manager's internals, client-side session locks)
// are unranked: they carry no ordering constraints but are still checked
// for recursive acquisition at runtime.
//
// The rpc.Peer locks rank below (outside) every server lock: a dispatch
// handler holds Peer.mu briefly before touching server state, and the
// coalescing writer takes Peer.wmu when a reply goes out — but no code path
// may send or match RPC traffic while holding server state locks, which is
// exactly the nesting the low ranks forbid.
//
// The hot paths rely on these locks never actually nesting (each is
// released before the next is taken — see Server's doc comment); the
// hierarchy exists so that any future nesting some PR introduces is forced
// into one deadlock-free direction and mechanically verified.
//
//bess:lockorder Peer.mu < Peer.wmu < Server.areaMu < Server.clientMu < Server.copyMu < Server.snapMu < txShard.mu < catalog.mu < asOfIndex.mu < Log.mu
package server

import "bess/internal/lockcheck"

// Runtime ranks mirroring the //bess:lockorder directive above. Lower rank
// = acquired earlier (outermost). Log.mu's rank lives in the wal package
// (wal.RankLogMu) and the Peer ranks in the rpc package (rankPeerMu,
// rankPeerWmu) because neither can import server; bess-vet's self-test
// keeps the files consistent with the directive.
//
// The two multiversion locks rank where their real nesting demands:
// Server.snapMu sits outside the tx shards (Disconnect closes a client's
// snapshots before aborting its transactions), and asOfIndex.mu sits
// innermost but for Log.mu: reconstruction and the commit path take it
// alone, and under it only the tx manager's unranked clock mutex.
const (
	rankAreaMu   lockcheck.Rank = 10
	rankClientMu lockcheck.Rank = 20
	rankCopyMu   lockcheck.Rank = 30
	rankSnapMu   lockcheck.Rank = 35
	rankTxShard  lockcheck.Rank = 40
	rankCatalog  lockcheck.Rank = 50
	rankAsOfMu   lockcheck.Rank = 52
)
