package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailLevelNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{
		{99, ""}, {100, "p90"}, {199, "p90"}, {200, "p95"}, {999, "p95"},
		{1000, "p99"}, {9999, "p99"}, {10000, "p999"},
	} {
		_, name, ok := tailLevel(c.n)
		if c.want == "" {
			if ok {
				t.Errorf("n=%d: got %s, want no tail percentile", c.n, name)
			}
			continue
		}
		if name != c.want {
			t.Errorf("n=%d: got %q, want %q", c.n, name, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// A server that stalls on its first request must inflate the latency of
// every request queued behind the stall, because latency is timed from
// each request's due time, not from when it could finally be sent.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"id": 7, "creator": "gupta"})
	}))
	defer fake.Close()

	var ops []Op
	for i := 0; i < 10; i++ {
		ops = append(ops, Op{Kind: kGet, Target: 7, Ref: -1, Creator: "gupta", Due: float64(i) * 0.010})
	}
	r := newRunner(fake.URL, 1, ops, newChecker(&seedState{}, 1))
	defer r.close()
	samples := r.openLoop(context.Background(), 0, len(ops), 1, r.now()+10*time.Millisecond)
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("op %d failed: %s", s.op, s.err)
		}
	}
	// Op 1 was due 10ms after op 0 but could only leave once the stall
	// ended: its latency from the due time must include that wait.
	for _, s := range samples[1:5] {
		lat := s.done - s.due
		if lat < stall-time.Duration(s.op)*10*time.Millisecond-20*time.Millisecond {
			t.Errorf("op %d latency %v does not include the stall", s.op, lat)
		}
		if s.done-s.send > 100*time.Millisecond {
			t.Errorf("op %d service time %v: the stall was charged to the wrong request", s.op, s.done-s.send)
		}
	}
}

func smallSeed(t *testing.T, name string) (spec, *world, *seedState) {
	t.Helper()
	sp := specs[name]
	if sp.SeedAnns > 0 {
		sp.SeedAnns = 150
	}
	w, err := newWorld(routeShards)
	if err != nil {
		t.Fatal(err)
	}
	st, err := buildSeed(sp, w, 5)
	if err != nil {
		t.Fatal(err)
	}
	return sp, w, st
}

func TestOpStreamsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	for _, name := range []string{"ingest", "explore", "fanout"} {
		sp, w, st := smallSeed(t, name)
		enc := func(seed int64) string {
			raw, err := json.Marshal(makeStream(sp, w, st, seed, 3))
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		a, b, c := enc(11), enc(11), enc(12)
		if a != b {
			t.Errorf("%s: two streams from seed 11 differ", name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", name)
		}
	}
}

func TestSeedStateRepeatsPerSeed(t *testing.T) {
	_, _, a := smallSeed(t, "fanout")
	_, _, b := smallSeed(t, "fanout")
	if string(a.snap) != string(b.snap) {
		t.Error("two seed snapshots from one seed differ")
	}
}

// Deletes only target commits (or seed annotations) set aside as
// victims, each once, and at least recentGap ops after their commit;
// lookups never target a victim.
func TestGeneratorNeverTargetsScheduledDeletions(t *testing.T) {
	for _, name := range []string{"ingest", "explore", "fanout"} {
		sp, w, st := smallSeed(t, name)
		for _, seed := range []int64{1, 2, 3} {
			s := makeStream(sp, w, st, seed, 5)
			victimRefs, victimIDs := map[int]bool{}, map[uint64]bool{}
			for i, op := range s.Ops {
				if op.Kind != kDelete {
					continue
				}
				if op.Ref >= 0 {
					if !s.Ops[op.Ref].Victim || s.Ops[op.Ref].Kind != kCommit {
						t.Fatalf("%s seed %d: delete %d targets non-victim op %d", name, seed, i, op.Ref)
					}
					if i-op.Ref < recentGap {
						t.Fatalf("%s seed %d: delete %d only %d ops after its commit", name, seed, i, i-op.Ref)
					}
					if victimRefs[op.Ref] {
						t.Fatalf("%s seed %d: op %d deleted twice", name, seed, op.Ref)
					}
					victimRefs[op.Ref] = true
				} else {
					if victimIDs[op.Target] {
						t.Fatalf("%s seed %d: seed annotation %d deleted twice", name, seed, op.Target)
					}
					victimIDs[op.Target] = true
				}
			}
			for i, op := range s.Ops {
				if class(op.Kind) != "lookup" {
					continue
				}
				if (op.Ref >= 0 && s.Ops[op.Ref].Victim) || (op.Ref < 0 && victimIDs[op.Target]) {
					t.Fatalf("%s seed %d: lookup %d targets an annotation scheduled for deletion", name, seed, i)
				}
				for _, id := range st.deletable {
					if op.Ref < 0 && op.Target == id {
						t.Fatalf("%s seed %d: lookup %d targets deletable seed annotation %d", name, seed, i, id)
					}
				}
			}
		}
	}
}

// Every commit keeps its marks on one shard of a two-shard deployment,
// except fanout's deliberate cross-shard commits, so the same stream
// replays on the sharded store.
func TestCommitsStayOnOneShardUnlessCross(t *testing.T) {
	for _, name := range []string{"ingest", "fanout"} {
		sp, w, st := smallSeed(t, name)
		s := makeStream(sp, w, st, 9, 5)
		cross := 0
		for i, op := range s.Ops {
			if op.Kind != kCommit {
				continue
			}
			shards := map[int]bool{}
			for _, m := range commitBody(op).Marks {
				shards[w.markShard(m)] = true
			}
			if len(shards) > 1 {
				cross++
				if sp.CrossFrac == 0 {
					t.Fatalf("%s: commit %d spans shards", name, i)
				}
			}
		}
		if sp.CrossFrac > 0 && cross == 0 {
			t.Errorf("%s: no cross-shard commits", name)
		}
	}
}

// The search check accepts exactly the answers a linearizable store can
// give while commits and deletes race the search.
func TestSearchCheckBounds(t *testing.T) {
	ms := time.Millisecond
	c := newChecker(&seedState{bodies: map[uint64]string{1: "bazoxe kaba", 2: "bazoxe"}}, 1)
	c.bodies[3], c.ackAt[3] = "bazoxe", 5*ms  // acknowledged before the search
	c.bodies[4], c.ackAt[4] = "bazoxe", 25*ms // committed while it ran
	c.delSentAt[2], c.delAckAt[2] = 15*ms, 30*ms
	c.searches = []searchRec{
		{op: 0, word: "bazoxe", send: 10 * ms, done: 20 * ms, ids: []uint64{1, 3}},       // 2 being deleted: ok
		{op: 1, word: "bazoxe", send: 10 * ms, done: 20 * ms, ids: []uint64{1, 2, 3, 4}}, // all possible: ok
		{op: 2, word: "bazoxe", send: 10 * ms, done: 20 * ms, ids: []uint64{1}},          // misses 3
		{op: 3, word: "bazoxe", send: 40 * ms, done: 50 * ms, ids: []uint64{1, 2, 3, 4}}, // 2 deleted before send
		{op: 4, word: "kaba", send: 40 * ms, done: 50 * ms, ids: []uint64{1, 3}},         // 3 lacks the word
	}
	bad := c.checkSearches()
	for op, want := range []bool{false, false, true, true, true} {
		if _, got := bad[op]; got != want {
			t.Errorf("search op %d: flagged=%v, want %v (%v)", op, got, want, bad[op])
		}
	}
}

// markShard is the shard owning a mark's routing key.
func (w *world) markShard(m markSpec) int {
	switch m.Type {
	case "interval":
		return w.shardOf[m.Domain]
	case "sequence":
		return w.shardOf[w.seqDom[m.SeqID]]
	default:
		return w.atlasOn
	}
}
