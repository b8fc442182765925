// Command bess-vet is BeSS's project-specific static analyzer. It enforces
// the invariants that go vet and the race detector cannot see:
//
//   - lockorder: nested lock acquisitions across the call graph must follow
//     the hierarchy declared by //bess:lockorder (internal/server/lockorder.go).
//   - durability: error results of Sync/Close/Write/Append/Flush on files,
//     the WAL, and storage areas must not be silently dropped or shadowed.
//   - guarded: struct fields annotated `// guarded by <mu>` may only be
//     touched with that mutex held (writes need the exclusive lock).
//   - defers: every Lock/RLock is paired with an Unlock on every exit path.
//   - poollife: acquire/release pairs declared by //bess:resource (pooled
//     frame buffers, segment pins, mmap mappings) are released exactly once
//     on every path and never escape the pool's sight.
//   - atomicmix: a field accessed through sync/atomic anywhere must be
//     accessed atomically everywhere, and plain 64-bit fields used with the
//     64-bit atomics must be 8-aligned under the 32-bit layout.
//   - codecsym: Append*/Decode* pairs in //bess:codecsym packages write and
//     read the same field sequence (count, order, width).
//   - golife: every goroutine spawned in a //bess:golife package has a
//     provable stop path (done-channel close, stop flag, WaitGroup join,
//     or error-break on a closable source), or an explicit
//     //bess:golife ignore=<reason> waiver.
//   - chanflow: channel protocol discipline in //bess:golife packages —
//     no double-close or send-after-close on any path, no unbuffered sends
//     from goroutines without a select escape, no WaitGroup.Add inside the
//     spawned goroutine.
//   - walorder: in //bess:walorder packages, every page-store sink (a call
//     to a //bess:walsink function) must be dominated by a wal Append on
//     the same path, declared capture=/mutate= pairs must call the capture
//     before the mutation (the as-of index insert before the page store),
//     and LSN chains must stay monotone (no stale PrevLSN after a newer
//     Append).
//   - lockfree: interprocedural taint from //bess:lockfree roots (snapshot
//     fetch, snapshot scans): any reachable
//     Lock/RLock or lock-manager Acquire is a finding unless waived with
//     //bess:lockfree ignore=<reason>.
//   - hotalloc: per-op heap allocations in //bess:hotpath functions (make,
//     nil-base append clones, string<->[]byte conversions, closures,
//     interface boxing) must be pooled, hoisted, or waived with
//     //bess:hotpath ignore=<reason>.
//   - directive: a //bess: comment with an unknown verb or a malformed
//     argument is itself a finding — typos must not silently disable
//     checking.
//
// Usage:
//
//	go run ./cmd/bess-vet ./...
//	go run ./cmd/bess-vet -json ./internal/... ./cmd/...
//	go vet -vettool=$(which bess-vet) ./...
//
// Exits 1 when any finding is reported, 2 on loader errors. With -json the
// findings are printed as a JSON array (empty array when clean) instead of
// the line-oriented report. The third form is the go vet tool protocol:
// when invoked by the go command (with -V=full, or with a single *.cfg
// argument) bess-vet answers the unit-checker handshake, analyzes the
// package the config describes, and reports findings for its files only —
// see vettool.go. The tool is stdlib-only (go/parser, go/types with the
// source importer): it needs no build cache and no external binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	// go vet tool protocol: `go vet -vettool=bess-vet` invokes the tool with
	// -V=full (version handshake) or a single <unit>.cfg argument.
	if runVettool(os.Args[1:]) {
		return
	}
	var (
		dir     = flag.String("C", ".", "module directory to analyze")
		only    = flag.String("only", "", "comma-separated analyzer subset (lockorder,durability,guarded,defers,poollife,atomicmix,codecsym,golife,chanflow,walorder,lockfree,hotalloc,directive)")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	findings, err := run(*dir, patterns, *only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bess-vet: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		type rec struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		// Report paths relative to the analyzed directory so CI can feed
		// them straight into ::error file=… annotations.
		base, _ := filepath.Abs(*dir)
		recs := make([]rec, 0, len(findings))
		for _, f := range findings {
			name := f.pos.Filename
			if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
			recs = append(recs, rec{
				File:     name,
				Line:     f.pos.Line,
				Col:      f.pos.Column,
				Analyzer: f.analyzer,
				Message:  f.msg,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintf(os.Stderr, "bess-vet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: [%s] %s\n", f.pos.Filename, f.pos.Line, f.pos.Column, f.analyzer, f.msg)
		}
		if len(findings) > 0 {
			fmt.Printf("bess-vet: %d finding(s)\n", len(findings))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// run loads the module rooted at (or above) dir and applies the selected
// analyzers to the packages matching patterns.
func run(dir string, patterns []string, only string) ([]finding, error) {
	modRoot, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(modRoot, modPath)
	pkgs, err := l.load(patterns)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}

	dirs := newDirectives()
	for _, p := range pkgs {
		dirs.collect(p)
	}

	var flows []*flowResult
	for _, p := range pkgs {
		flows = append(flows, flowsOf(p, dirs)...)
	}

	enabled := map[string]bool{}
	if only == "" {
		enabled = map[string]bool{
			"lockorder": true, "durability": true, "guarded": true, "defers": true,
			"poollife": true, "atomicmix": true, "codecsym": true,
			"golife": true, "chanflow": true,
			"walorder": true, "lockfree": true, "hotalloc": true, "crcpath": true,
			"directive": true,
		}
	} else {
		for _, a := range strings.Split(only, ",") {
			enabled[strings.TrimSpace(a)] = true
		}
	}

	r := &reporter{fset: l.fset}
	if enabled["directive"] {
		for _, b := range dirs.bad {
			r.report(b.pos, "directive", "%s", b.msg)
		}
	}
	if enabled["lockorder"] {
		analyzeLockOrder(flows, dirs, r)
	}
	if enabled["guarded"] {
		analyzeGuarded(flows, dirs, r)
	}
	if enabled["defers"] {
		analyzeDefers(flows, dirs, r)
	}
	if enabled["durability"] {
		analyzeDurability(pkgs, r)
	}
	if enabled["poollife"] {
		analyzePoolLife(pkgs, dirs, r)
	}
	if enabled["atomicmix"] {
		analyzeAtomicMix(pkgs, dirs, r)
	}
	if enabled["codecsym"] {
		analyzeCodecSym(pkgs, dirs, r)
	}
	if enabled["golife"] {
		analyzeGoLife(pkgs, dirs, r)
	}
	if enabled["chanflow"] {
		analyzeChanFlow(pkgs, dirs, r)
	}
	if enabled["walorder"] {
		analyzeWALOrder(pkgs, dirs, r)
	}
	if enabled["lockfree"] {
		analyzeLockFree(pkgs, dirs, r)
	}
	if enabled["hotalloc"] {
		analyzeHotAlloc(pkgs, dirs, r)
	}
	if enabled["crcpath"] {
		analyzeCrcPath(pkgs, dirs, r)
	}
	return r.sorted(), nil
}
