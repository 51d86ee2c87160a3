package graphitti

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/obs"
	"graphitti/internal/query"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

// BenchmarkW1DurableCommit measures logged-commit throughput against
// in-memory commit at 8 concurrent writers — the cost of durability. The
// durable mode fdatasyncs every acknowledged commit; group commit batches
// the concurrent writers into shared syncs, which is what keeps the
// logged path within a small factor of memory speed. durable-nosync
// isolates the logging/encoding overhead from the sync itself.
func BenchmarkW1DurableCommit(b *testing.B) {
	const writers = 8

	modes := []struct {
		name string
		open func(b *testing.B) workload.Sink
	}{
		{"inmemory", func(b *testing.B) workload.Sink { return workload.AsSink(core.NewStore()) }},
		{"durable", func(b *testing.B) workload.Sink {
			s, err := durable.Open(b.TempDir(), durable.Options{CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"durable-nosync", func(b *testing.B) workload.Sink {
			s, err := durable.Open(b.TempDir(), durable.Options{CompactThreshold: -1, NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
	}

	for _, mode := range modes {
		b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
			s := mode.open(b)
			cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RegisterCoordinateSystem(cs); err != nil {
				b.Fatal(err)
			}
			im, err := imaging.NewImage("img-0", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.RegisterImage(im); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&next, 1)
						if i > int64(b.N) {
							return
						}
						x := float64(i % 900)
						y := float64((i / 900) % 900)
						m, err := s.MarkImageRegion("img-0", rtree.Rect2D(x, y, x+7, y+7))
						if err != nil {
							b.Error(err)
							return
						}
						_, err = s.Commit(s.NewAnnotation().
							Creator(fmt.Sprintf("writer-%d", g)).
							Date("2026-07-29").
							Body(fmt.Sprintf("durable commit %d", i)).
							Refer(m))
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// recoveryMetrics are the registry readings BenchmarkRecoveryMetrics
// reports, named as obs.Registry.WriteCSV flattens them.
var recoveryMetrics = []string{
	"graphitti_store_commit_duration_seconds_p50",
	"graphitti_store_commit_duration_seconds_p99",
	"graphitti_durable_commit_wait_seconds_p50",
	"graphitti_durable_commit_wait_seconds_p99",
	"graphitti_wal_flushes_total",
	"graphitti_wal_flush_batch_records_count",
	"graphitti_wal_flush_batch_records_p50",
	"graphitti_wal_flush_batch_records_p99",
	"graphitti_wal_fsync_duration_seconds_p50",
	"graphitti_wal_fsync_duration_seconds_p99",
}

// BenchmarkRecoveryMetrics exercises every instrumented layer — the
// durable mixed recovery stream (WAL, group commit, writer, propagation)
// followed by the paper's Q1 graph query and a content search — and
// reports the commit latency, durable wait, WAL flush batching and fsync
// readings of the process metric registry as extra metrics. The registry
// is process-global, so the readings describe this workload alone only
// when it runs by itself, once:
//
//	go test -run '^$' -bench '^BenchmarkRecoveryMetrics$' -benchtime 1x .
//
// scripts/bench.sh records the readings as metrics:<name> rows.
func BenchmarkRecoveryMetrics(b *testing.B) {
	q := query.MustParse(`
		select graph
		where {
		  ?a isa annotation ; contains "protein.TP53" .
		  ?r isa referent ; kind region .
		  ?a annotates ?r .
		}
	`)
	for i := 0; i < b.N; i++ {
		d, err := durable.Open(b.TempDir(), durable.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := workload.ApplyOps(d, workload.RecoveryScenario(workload.DefaultRecovery)); err != nil {
			b.Fatal(err)
		}
		p := query.NewProcessor(d.Core())
		for j := 0; j < 20; j++ {
			if _, err := p.ExecuteParsed(q, query.DefaultOptions); err != nil {
				b.Fatal(err)
			}
			if _, err := d.Core().View().SearchContents("TP53"); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			b.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := obs.Default.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		b.Fatal(err)
	}
	readings := map[string]float64{}
	for _, row := range rows[1:] {
		if v, err := strconv.ParseFloat(row[2], 64); err == nil {
			readings[row[0]] = v
		}
	}
	for _, name := range recoveryMetrics {
		v, ok := readings[name]
		if !ok || math.IsNaN(v) {
			b.Fatalf("metric registry has no %s reading", name)
		}
		b.ReportMetric(v, name)
	}
}
