package shard_test

// The differential property test: one deterministic op stream, applied
// serially to an unsharded in-memory store and to sharded stores of
// 1..4 shards, must produce byte-identical merged exports — same IDs,
// same derived facts, same provenance — plus identical stats and search
// answers. This is the exactness contract for the supported workload
// class (each annotation's marks within one routing domain).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

func exportJSON(t *testing.T, snap *persist.Snapshot) []byte {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestShardedDifferentialExport(t *testing.T) {
	scenarios := []struct {
		name string
		ops  []workload.RecoveryOp
	}{
		{"recovery", workload.RecoveryScenario(workload.DefaultRecovery)},
		{"sharded-spread", workload.ShardedScenario(workload.RecoveryConfig{Seed: 7, Images: 8, Ops: 350}, 4)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := core.NewStore()
			if err := workload.ApplyOps(workload.AsSink(want), sc.ops); err != nil {
				t.Fatalf("unsharded apply: %v", err)
			}
			wantSnap, err := persist.Export(want)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := exportJSON(t, wantSnap)

			for n := 1; n <= 4; n++ {
				s := shard.New(n)
				if err := workload.ApplyOps(s, sc.ops); err != nil {
					t.Fatalf("n=%d sharded apply: %v", n, err)
				}
				gotSnap, err := s.Export()
				if err != nil {
					t.Fatalf("n=%d export: %v", n, err)
				}
				if gotJSON := exportJSON(t, gotSnap); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("n=%d merged export diverged from unsharded store", n)
					diffSnapshots(t, gotSnap, wantSnap)
					continue
				}
				if g, w := s.Stats(), want.Stats(); g != w {
					t.Errorf("n=%d stats diverged:\n got %+v\nwant %+v", n, g, w)
				}
				if g, w := s.DerivedAll(), want.DerivedAll(); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d derived facts diverged: %d vs %d", n, len(g), len(w))
				}
				for _, ann := range want.Annotations() {
					target := agraph.ContentRoot(ann.ID)
					g := s.DerivedTargeting(target)
					w := want.DerivedTargeting(target)
					if !reflect.DeepEqual(g, w) {
						t.Errorf("n=%d provenance of annotation %d diverged: got %v want %v",
							n, ann.ID, g, w)
					}
				}
				if g, w := annIDs(s.SearchKeyword("protein.TP53", true)), annIDs(want.SearchKeyword("protein.TP53", true)); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d keyword search diverged: got %v want %v", n, g, w)
				}
				gc, err := s.SearchContents("contains(/annotation/body, 'Cerebellar')")
				if err != nil {
					t.Fatalf("n=%d contents search: %v", n, err)
				}
				wc, err := want.View().SearchContents("contains(/annotation/body, 'Cerebellar')")
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(annIDs(gc), annIDs(wc)) {
					t.Errorf("n=%d contents search diverged: got %v want %v", n, annIDs(gc), annIDs(wc))
				}
				if g, w := annIDs(s.Annotations()), annIDs(want.Annotations()); !reflect.DeepEqual(g, w) {
					t.Errorf("n=%d annotation list diverged", n)
				}
			}
		})
	}
}

// TestShardedRestoreRoundTrip: a snapshot restored into a fresh sharded
// store (any shard count, in memory or durable) must export exactly what
// an unsharded load of it exports. For a merged export that is the
// snapshot itself — the partition function is an inverse of the merge.
// For the same content as a v1 snapshot (no IDs, no counters) it pins
// ID assignment in file order, independent of shard count and of the
// order in which shards load.
func TestShardedRestoreRoundTrip(t *testing.T) {
	ops := workload.ShardedScenario(workload.RecoveryConfig{Seed: 11, Images: 6, Ops: 250}, 3)
	src := shard.New(3)
	if err := workload.ApplyOps(src, ops); err != nil {
		t.Fatal(err)
	}
	v2, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	var v1 persist.Snapshot
	if err := json.Unmarshal(exportJSON(t, v2), &v1); err != nil {
		t.Fatal(err)
	}
	v1.Version, v1.NextAnn, v1.NextRef = 1, 0, 0
	for i := range v1.Annotations {
		v1.Annotations[i].ID = 0
		for j := range v1.Annotations[i].Referents {
			v1.Annotations[i].Referents[j].ID = 0
		}
	}
	unsharded, err := persist.Load(&v1)
	if err != nil {
		t.Fatal(err)
	}
	v1Want, err := persist.Export(unsharded)
	if err != nil {
		t.Fatal(err)
	}

	inputs := []struct {
		name       string
		snap, want *persist.Snapshot
	}{
		{"v2", v2, v2},
		{"v1", &v1, v1Want},
	}
	backends := []struct {
		name string
		open func(t *testing.T, n int) *shard.Store
	}{
		{"memory", func(t *testing.T, n int) *shard.Store { return shard.New(n) }},
		{"durable", func(t *testing.T, n int) *shard.Store {
			s, err := shard.Open(t.TempDir(), n, durable.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	}
	for _, in := range inputs {
		wantJSON := exportJSON(t, in.want)
		for _, b := range backends {
			for n := 1; n <= 4; n++ {
				t.Run(fmt.Sprintf("%s/%s/n=%d", in.name, b.name, n), func(t *testing.T) {
					dst := b.open(t, n)
					if err := dst.Restore(in.snap); err != nil {
						t.Fatalf("restore: %v", err)
					}
					got, err := dst.Export()
					if err != nil {
						t.Fatalf("re-export: %v", err)
					}
					if !bytes.Equal(exportJSON(t, got), wantJSON) {
						t.Errorf("restore round-trip diverged from the unsharded load")
						diffSnapshots(t, got, in.want)
					}
					// Restored stores must keep allocating fresh IDs above
					// the restored counters.
					probe := dst.NewAnnotation().Creator("x").Date("2008-01-01").Body("post-restore probe")
					probe.OntologyRef("nif", "cerebellum")
					ann, err := dst.Commit(probe)
					if err != nil {
						t.Fatalf("post-restore commit: %v", err)
					}
					if ann.ID <= in.want.NextAnn {
						t.Errorf("post-restore annotation ID %d not above counter %d", ann.ID, in.want.NextAnn)
					}
				})
			}
		}
	}
}

func diffSnapshots(t *testing.T, got, want *persist.Snapshot) {
	t.Helper()
	report := func(name string, g, w any) {
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Logf("section %s diverged:\n got %.2000s\nwant %.2000s", name, gj, wj)
		}
	}
	report("Ontologies", got.Ontologies, want.Ontologies)
	report("Rules", got.Rules, want.Rules)
	report("Systems", got.Systems, want.Systems)
	report("Sequences", got.Sequences, want.Sequences)
	report("Alignments", got.Alignments, want.Alignments)
	report("Trees", got.Trees, want.Trees)
	report("Graphs", got.Graphs, want.Graphs)
	report("Images", got.Images, want.Images)
	report("RecordTables", got.RecordTables, want.RecordTables)
	report("Annotations", got.Annotations, want.Annotations)
	report("NextAnn", got.NextAnn, want.NextAnn)
	report("NextRef", got.NextRef, want.NextRef)
}

func annIDs(anns []*core.Annotation) []uint64 {
	ids := make([]uint64, 0, len(anns))
	for _, a := range anns {
		ids = append(ids, a.ID)
	}
	return ids
}
