package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

// registerDomainSeq registers a DNA sequence addressed in domain so
// MarkDomainInterval has a covering owner there.
func registerDomainSeq(t *testing.T, s *Store, id, domain string) {
	t.Helper()
	sq, err := seq.New(id, seq.DNA, strings.Repeat("ACGT", 64))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = domain
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreWaitsForRoutedWriters pins the Restore/commit barrier: an
// in-flight routed mutation on any shard blocks the core-pointer swap,
// and a commit issued while Restore is parked waits and lands in the
// restored state — the interleaving that, without the per-shard writer
// latch, could acknowledge a write into a core the swap had already
// replaced.
func TestRestoreWaitsForRoutedWriters(t *testing.T) {
	s := New(2)
	// A domain owned by shard 0 — where the concurrent commit will land.
	dom := ""
	for i := 0; dom == ""; i++ {
		if d := fmt.Sprintf("dom-%d", i); s.router.ShardOfKey(d) == 0 {
			dom = d
		}
	}
	registerDomainSeq(t, s, "live-seq", dom)

	// The snapshot to restore: one committed annotation, plus dom's
	// sequence so the concurrent commit's mark stays covered afterwards.
	src := New(1)
	registerDomainSeq(t, src, "seed-seq", "seed-dom")
	registerDomainSeq(t, src, "live-seq", dom)
	seedRef, err := src.MarkDomainInterval("seed-dom", interval.Interval{Lo: 0, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Commit(core.NewBuilder().Creator("tester").Date("2026-08-08").Body("seed").Refer(seedRef)); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}

	r, err := s.MarkDomainInterval(dom, interval.Interval{Lo: 10, Hi: 20})
	if err != nil {
		t.Fatal(err)
	}

	// A routed writer in flight on shard 1 must park Restore on that
	// shard's latch.
	s.smu[1].RLock()
	restored := make(chan error, 1)
	go func() { restored <- s.Restore(snap) }()
	select {
	case err := <-restored:
		t.Fatalf("Restore completed under an in-flight shard writer: err=%v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// A commit routed to shard 0 — whose write latch the parked Restore
	// already holds — must wait for the swap, not slip into the core
	// about to be replaced.
	acked := make(chan uint64, 1)
	cerr := make(chan error, 1)
	go func() {
		ann, err := s.Commit(core.NewBuilder().Creator("tester").Date("2026-08-08").Body("during-restore").Refer(r))
		if err != nil {
			cerr <- err
			return
		}
		acked <- ann.ID
	}()
	select {
	case id := <-acked:
		t.Fatalf("commit %d acknowledged while Restore held the shard latches", id)
	case err := <-cerr:
		t.Fatalf("commit during parked restore: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	s.smu[1].RUnlock()
	if err := <-restored; err != nil {
		t.Fatalf("restore: %v", err)
	}
	var id uint64
	select {
	case id = <-acked:
	case err := <-cerr:
		t.Fatalf("commit after restore released: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("commit never completed after restore finished")
	}
	// The acknowledged commit is in the restored state, alongside the
	// snapshot's seed annotation.
	if _, err := s.Annotation(id); err != nil {
		t.Fatalf("annotation %d acknowledged after restore is not visible: %v", id, err)
	}
	if got := len(s.Annotations()); got != 2 {
		t.Fatalf("annotations after restore+commit = %d, want 2 (seed + concurrent)", got)
	}
}

// TestRestoreLoadFailureChangesNoShard: a snapshot whose shard-1
// partition fails to load must leave every shard of a durable store
// exactly as it was. No shard may checkpoint (and so adopt) its own
// partition while another shard's partition is unloadable.
func TestRestoreLoadFailureChangesNoShard(t *testing.T) {
	s, err := Open(t.TempDir(), 2, durable.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := workload.ApplyOps(s, workload.ShardedScenario(workload.RecoveryConfig{Seed: 3, Images: 4, Ops: 80}, 2)); err != nil {
		t.Fatal(err)
	}
	exportOf := func() []byte {
		t.Helper()
		snap, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	wantJSON := exportOf()
	wantStats := s.DurabilityStats()

	// The snapshot: another store's state, plus one term-only annotation
	// naming an ontology that routes to shard 1 and is not registered.
	src := New(2)
	if err := workload.ApplyOps(src, workload.ShardedScenario(workload.RecoveryConfig{Seed: 4, Images: 4, Ops: 80}, 2)); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	ghost := ""
	for i := 0; ghost == ""; i++ {
		if o := fmt.Sprintf("ghost-%d", i); s.router.ShardOfKey(o) == 1 {
			ghost = o
		}
	}
	snap.NextAnn++
	snap.Annotations = append(snap.Annotations, persist.AnnotationDump{
		ID:    snap.NextAnn,
		DC:    map[string][]string{"creator": {"tester"}, "date": {"2026-10-18"}},
		Body:  "names an unregistered ontology",
		Terms: []persist.TermRefDump{{Ontology: ghost, Term: "t"}},
	})

	err = s.Restore(snap)
	var se *Error
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("restore error = %v, want shard 1's load failure", err)
	}
	if !bytes.Equal(exportOf(), wantJSON) {
		t.Error("failed restore changed the store's export")
	}
	for k, st := range s.DurabilityStats() {
		if st.Seq != wantStats[k].Seq {
			t.Errorf("shard %d: seq %d after failed restore, want %d", k, st.Seq, wantStats[k].Seq)
		}
	}
}
