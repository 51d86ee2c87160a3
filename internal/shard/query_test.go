package shard_test

import (
	"context"
	"fmt"
	"testing"

	"graphitti/internal/query"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// TestShardedQueryLimitIsGlobal: a query's "limit N" caps the merged
// answer, not each shard's share of it. Each of the two shards holds more
// matches than the limit, so a per-shard cap alone would return 2N.
func TestShardedQueryLimitIsGlobal(t *testing.T) {
	s := shard.New(2)
	ops := workload.ShardedScenario(workload.RecoveryConfig{Seed: 3, Images: 6, Ops: 200}, 4)
	if err := workload.ApplyOps(s, ops); err != nil {
		t.Fatal(err)
	}
	const limit = 5
	for k := 0; k < s.NumShards(); k++ {
		if got := len(s.View(k).Annotations()); got <= limit {
			t.Fatalf("shard %d holds %d annotations, want more than %d", k, got, limit)
		}
	}

	const where = `where { ?a isa annotation . ?r isa referent . ?a annotates ?r . }`
	cases := []struct {
		name       string
		limit      int // the query's own "limit N"; 0 = none
		maxResults int
		want       int
	}{
		{"limit", limit, 0, limit},
		{"limit-below-max", limit, 100, limit},
		{"max-below-limit", limit, 3, 3},
		{"max-only", 0, 4, 4},
	}
	for _, kind := range []string{"contents", "referents", "graph"} {
		for _, tc := range cases {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				src := "select " + kind + " " + where
				if tc.limit > 0 {
					src += fmt.Sprintf(" limit %d", tc.limit)
				}
				opts := query.DefaultOptions
				opts.MaxResults = tc.maxResults
				res, err := s.Query(context.Background(), src, opts)
				if err != nil {
					t.Fatal(err)
				}
				var rows int
				switch kind {
				case "contents":
					rows = len(res.Annotations)
				case "referents":
					rows = len(res.Referents)
				case "graph":
					rows = len(res.Subgraphs)
				}
				if len(res.Matches) != tc.want || res.Stats.Matches != tc.want || rows != tc.want {
					t.Errorf("got %d matches (stats %d), %d %s rows; want %d of each",
						len(res.Matches), res.Stats.Matches, rows, kind, tc.want)
				}
			})
		}
	}
}
