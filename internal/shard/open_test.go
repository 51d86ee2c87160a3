package shard_test

// Directory-layout safety: shard.Open never lays a sharded store over
// data it would then ignore. A legacy unsharded durable directory is
// adopted as shard 0 of a one-shard store (or refused, untouched, at
// n > 1), and a sharded directory whose SHARDS.json was lost refuses —
// silently initialising would serve an empty store while the existing
// shard-<k>/ data sits ignored, forking the directory.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/faultfs"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// legacyDir writes an unsharded durable directory holding a checkpoint,
// its manifest, and a WAL of records past it, and returns the directory
// with the export of every acknowledged record.
func legacyDir(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 7, Images: 4, Ops: 80})
	if err := workload.ApplyOps(d, ops[:40]); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := workload.ApplyOps(d, ops[40:]); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Export(d.Core())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, exportJSON(t, snap)
}

// dirTree maps every path under dir to its contents ("/" for a
// directory), for byte-for-byte comparisons.
func dirTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		if e.IsDir() {
			tree[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(p)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for rel, data := range dirTree(t, src) {
		p := filepath.Join(dst, rel)
		var err error
		if data == "/" {
			err = os.MkdirAll(p, 0o755)
		} else if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			err = os.WriteFile(p, []byte(data), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkAdopted opens dir as a plain one-shard directory and checks it
// serves want, with the store files under shard-0/ only: no top-level
// store state left and exactly one WAL in the tree.
func checkAdopted(t *testing.T, dir string, want []byte) {
	t.Helper()
	s, err := shard.Open(dir, 0, durable.Options{})
	if err != nil {
		t.Fatalf("open adopted directory: %v", err)
	}
	defer s.Close()
	if s.NumShards() != 1 {
		t.Fatalf("adopted directory opened with %d shards, want 1", s.NumShards())
	}
	snap, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if got := exportJSON(t, snap); string(got) != string(want) {
		t.Fatal("adopted store does not serve every acknowledged record")
	}
	if durable.HasStore(dir) {
		t.Fatal("store files left at the top level after adoption")
	}
	wals := 0
	for rel := range dirTree(t, dir) {
		if filepath.Base(rel) == "graphitti.wal" {
			wals++
		}
	}
	if wals != 1 {
		t.Fatalf("%d WALs in the adopted directory, want 1", wals)
	}
}

// TestOpenRefusesUnshardedDirectory: a legacy unsharded directory can
// only become shard 0 of a one-shard store; asking for more shards is
// refused and leaves the directory byte-for-byte as it was.
func TestOpenRefusesUnshardedDirectory(t *testing.T) {
	dir, want := legacyDir(t)
	before := dirTree(t, dir)
	for _, n := range []int{2, 3} {
		if _, err := shard.Open(dir, n, durable.Options{}); err == nil {
			t.Fatalf("n=%d: sharded Open initialised over an unsharded durable directory", n)
		}
		after := dirTree(t, dir)
		if len(after) != len(before) {
			t.Fatalf("n=%d: refused Open changed the directory listing: %d → %d entries", n, len(before), len(after))
		}
		for rel, data := range before {
			if after[rel] != data {
				t.Fatalf("n=%d: refused Open changed %s", n, rel)
			}
		}
	}
	// Refusal strands nothing: the directory still adopts.
	checkAdopted(t, dir, want)
}

// TestOpenAdoptsUnshardedDirectory: with n unset or 1, a legacy
// directory opens as shard 0 and serves every acknowledged record;
// writes after adoption land in shard-0/ and survive a restart.
func TestOpenAdoptsUnshardedDirectory(t *testing.T) {
	for _, n := range []int{0, 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir, _ := legacyDir(t)
			s, err := shard.Open(dir, n, durable.Options{})
			if err != nil {
				t.Fatalf("adopt: %v", err)
			}
			if err := s.AddRule(prop.Rule{ID: "post-adoption", Edge: prop.EdgeSharedReferent}); err != nil {
				t.Fatal(err)
			}
			snap, err := s.Export()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			checkAdopted(t, dir, exportJSON(t, snap))
		})
	}
}

// TestAdoptionFaultAtEachStep fails each file operation of an adoption
// in turn — the manifest's create, sync, rename and directory sync, and
// each store file's rename — and checks that a clean Open afterwards
// finishes the move with no lost record and no second WAL.
func TestAdoptionFaultAtEachStep(t *testing.T) {
	tmpl, want := legacyDir(t)
	for _, op := range []faultfs.Op{faultfs.OpCreate, faultfs.OpSync, faultfs.OpRename, faultfs.OpDirSync} {
		for n := 1; ; n++ {
			if n > 20 {
				t.Fatalf("%s: fault never stopped failing Open", op)
			}
			dir := t.TempDir()
			copyTree(t, tmpl, dir)
			inj := faultfs.NewScript().FailAt(op, n, faultfs.Fault{Err: faultfs.Errno(op, syscall.EIO)})
			s, err := shard.Open(dir, 0, durable.Options{Inject: inj})
			if err == nil {
				// The nth op comes after adoption and Open completed:
				// every earlier step has been faulted.
				s.Close()
				checkAdopted(t, dir, want)
				break
			}
			if !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("%s #%d: %v", op, n, err)
			}
			t.Logf("%s #%d: %v", op, n, err)
			checkAdopted(t, dir, want)
		}
	}
}

func TestOpenRefusesOrphanShardDirs(t *testing.T) {
	dir := t.TempDir()
	s, err := shard.Open(dir, 2, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that lost the manifest.
	if err := os.Remove(filepath.Join(dir, "SHARDS.json")); err != nil {
		t.Fatal(err)
	}
	// n=0 must not re-pin the count to 1 (hiding shard-1's data), and no
	// count may re-initialise over the orphaned shard directories.
	for _, n := range []int{0, 1, 2} {
		if _, err := shard.Open(dir, n, durable.Options{}); err == nil {
			t.Fatalf("n=%d: Open re-initialised over shard-* dirs with no manifest", n)
		}
	}
}

// TestCommitRefusesCrossShardCommittedReferent: reusing a committed
// referent homed on a different shard than the annotation's home shard
// is refused up front with ErrCrossShardReferent naming the owner — not
// a confusing "no such referent" from a home shard that cannot see it.
// Reuse within the home shard keeps working.
func TestCommitRefusesCrossShardCommittedReferent(t *testing.T) {
	s := shard.New(2)
	router := core.Router{Shards: 2}
	domA, domB := "", ""
	for i := 0; domA == "" || domB == ""; i++ {
		d := fmt.Sprintf("dom-%d", i)
		switch router.ShardOfKey(d) {
		case 0:
			if domA == "" {
				domA = d
			}
		default:
			if domB == "" {
				domB = d
			}
		}
	}
	for i, dom := range []string{domA, domB} {
		sq, err := seq.New(fmt.Sprintf("seq-%d", i), seq.DNA, strings.Repeat("ACGT", 64))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = dom
		if err := s.RegisterSequence(sq); err != nil {
			t.Fatal(err)
		}
	}

	ra, err := s.MarkDomainInterval(domA, interval.Interval{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	annA, err := s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("on shard 0").Refer(ra))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.Referent(annA.ReferentIDs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Same-shard reuse of the committed referent works.
	rb, err := s.MarkDomainInterval(domA, interval.Interval{Lo: 5, Hi: 15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("shares on shard 0").Refer(rb).Refer(shared)); err != nil {
		t.Fatalf("same-shard committed-referent reuse: %v", err)
	}

	// Cross-shard reuse is refused with the dedicated error.
	rc, err := s.MarkDomainInterval(domB, interval.Interval{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Commit(s.NewAnnotation().Creator("tester").Date("2026-08-08").Body("homes on shard 1").Refer(rc).Refer(shared))
	if !errors.Is(err, shard.ErrCrossShardReferent) {
		t.Fatalf("cross-shard committed-referent commit: err = %v, want ErrCrossShardReferent", err)
	}
	if errors.Is(err, core.ErrNoSuchReferent) {
		t.Fatalf("cross-shard refusal still reads as no-such-referent: %v", err)
	}
}
