package core

import (
	"hash/fnv"
	"sync/atomic"
)

// This file is the core half of the sharded writer pipeline: the Router
// that places every mutation on one of N independent stores, the routing
// key each referent exposes, and the shared ID allocator that keeps
// annotation/referent IDs globally unique across shards. The shard
// facade itself (merged reads, broadcasts, durability) lives in
// internal/shard; the placement rules live here so the routing function
// and the mark/dedup semantics it depends on evolve together.

// IDSource allocates annotation and referent IDs for a store. A sharded
// deployment hands every shard the same source so concurrently committed
// annotations never collide; allocations must be strictly monotone.
type IDSource interface {
	AllocAnnotationID() uint64
	AllocReferentID() uint64
}

// AtomicIDs is the standard IDSource for a set of sharded stores: two
// shared atomic counters. The zero value starts both sequences at 1.
type AtomicIDs struct {
	ann atomic.Uint64
	ref atomic.Uint64
}

// AllocAnnotationID returns the next annotation ID.
func (a *AtomicIDs) AllocAnnotationID() uint64 { return a.ann.Add(1) }

// AllocReferentID returns the next referent ID.
func (a *AtomicIDs) AllocReferentID() uint64 { return a.ref.Add(1) }

// Advance raises the counters to at least (nextAnn, nextRef) — the
// recovery path calls it with every shard's view counters so
// post-replay allocations resume after every replayed ID.
func (a *AtomicIDs) Advance(nextAnn, nextRef uint64) {
	advanceMax(&a.ann, nextAnn)
	advanceMax(&a.ref, nextRef)
}

// Counters reports the last allocated (annotation, referent) IDs.
func (a *AtomicIDs) Counters() (nextAnn, nextRef uint64) {
	return a.ann.Load(), a.ref.Load()
}

func advanceMax(c *atomic.Uint64, to uint64) {
	for {
		cur := c.Load()
		if cur >= to || c.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Router maps routing keys onto shard indexes with a stable hash, so the
// same key always lands on the same shard across processes and restarts
// (the on-disk shard layout depends on it).
type Router struct {
	// Shards is the shard count; zero or one routes everything to 0.
	Shards int
}

// ShardOfKey returns the owning shard of a routing key (FNV-1a mod N).
func (r Router) ShardOfKey(key string) int {
	if r.Shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(r.Shards))
}

// ShardOfReferent returns the owning shard of a mark.
func (r Router) ShardOfReferent(ref *Referent) int {
	return r.ShardOfKey(ref.RouteKey())
}

// RouteKey returns the placement key of a mark: the coordinate domain
// for interval and region marks (so SUB_X overlap and co-registration
// propagation stay intra-shard), the owning object or table for
// structural marks, and the object ID for whole-object marks. Identical
// marks always have identical route keys, so per-shard mark dedup is
// exactly the unsharded dedup.
func (r *Referent) RouteKey() string {
	if r.Kind == ObjectReferent {
		// Domain for a whole-object mark is the object type — far too
		// coarse to spread load; the object's identity places it.
		return r.ObjectID
	}
	if r.Domain != "" {
		return r.Domain
	}
	return r.ObjectID
}
