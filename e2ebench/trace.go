package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/httpapi"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
	"graphitti/internal/shard"
	"graphitti/internal/wal"
	"graphitti/internal/xquery"
)

// The traced run replays a prefix of the workload's op stream in-process
// on one thread, once per rung — each layer's public entry point, with
// its own store restored from the same seed snapshot:
//
//	net      loopback HTTP to an in-process server
//	httpapi  Handler.ServeHTTP, no socket
//	shard    shard.Store at N=1 and at N=2
//	durable  durable.Store
//	core     core.Store and core.View, with prop attached
//
// A layer's self time is its rung's time minus the next rung's time for
// the same op. Leaf calls (prop delta, keyword lookup, query parse,
// xquery compile, a-graph connect) are timed directly on the core rung.
// Spans — name, start, end, parent, op — stay in memory and are written
// to .bench_build/traces/ at the end.

// traceOps bounds the replayed prefix, so seven single-threaded replays
// fit one run.
const traceOps = 400

// gcEvery is the op count between forced collections on the core rung.
const gcEvery = 32

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`
}

type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(idx int) {
	if idx >= 0 {
		t.spans[idx].End = time.Since(t.origin).Nanoseconds()
	}
}

// leaf times fn as a child span of parent.
func (t *tracer) leaf(name string, op, parent int, fn func()) time.Duration {
	sp := t.begin(name, op, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(sp)
	return d
}

// result is what one rung observed for one op.
type result struct {
	dur  time.Duration
	id   uint64 // commit: the new annotation ID
	hits int    // reads: result count
	resp int    // HTTP rungs: response bytes
	err  error
}

// executor runs one op at one rung against the resolved target ID.
type executor func(i int, op Op, id uint64, parent int) result

// backend is the store surface the shard and durable rungs share.
type backend interface {
	marker
	NewAnnotation() *core.Builder
	Commit(*core.Builder) (*core.Annotation, error)
	DeleteAnnotation(uint64) error
	AddRule(prop.Rule) error
	DeleteRule(string) error
}

// coreStats gathers the core rung's per-layer counts.
type coreStats struct {
	commitAllocs, commitBytes uint64
	allocs, kb                []float64 // per commit
	commits                   int
	facts                     int
	deltaDur                  time.Duration
	keywordDur, compileDur    time.Duration
	searches                  int
	scanned, hits             int
	parseDur, connectDur      time.Duration
	queries, connects         int
	bindings, matches         int
}

// coreExec executes ops directly on a core store and its views. The
// op's duration covers the store call alone; with cs set it also counts
// commit allocations and times the leaf calls, outside that duration.
func coreExec(t *tracer, s *core.Store, cs *coreStats) executor {
	eng := prop.Attach(s)
	proc := query.NewProcessor(s)
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	return func(i int, op Op, id uint64, parent int) result {
		var r result
		var start time.Time
		switch op.Kind {
		case kCommit:
			b, err := builder(s, s.NewAnnotation(), commitBody(op))
			if err != nil {
				return result{err: err}
			}
			pre := s.View()
			if cs != nil {
				runtime.ReadMemStats(&ms0)
			}
			start = time.Now()
			ann, err := s.Commit(b)
			r.dur = time.Since(start)
			if err != nil {
				return result{err: err}
			}
			r.id = ann.ID
			if cs == nil {
				break
			}
			runtime.ReadMemStats(&ms1)
			cs.commits++
			cs.commitAllocs += ms1.Mallocs - ms0.Mallocs
			cs.commitBytes += ms1.TotalAlloc - ms0.TotalAlloc
			cs.allocs = append(cs.allocs, float64(ms1.Mallocs-ms0.Mallocs))
			cs.kb = append(cs.kb, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
			post := s.View()
			cs.deltaDur += t.leaf("prop.delta", i, parent, func() {
				for _, facts := range eng.Delta(pre, post, ann, false) {
					cs.facts += len(facts)
				}
			})
		case kDelete:
			start = time.Now()
			r.err = s.DeleteAnnotation(id)
			r.dur = time.Since(start)
		case kSearch:
			expr := searchExpr(op.Word)
			v := s.View()
			start = time.Now()
			anns, err := v.SearchContentsCtx(ctx, expr)
			r.dur = time.Since(start)
			r.hits, r.err = len(anns), err
			if cs == nil {
				break
			}
			cs.compileDur += t.leaf("xquery.compile", i, parent, func() { _, r.err = xquery.Compile(expr) })
			cs.keywordDur += t.leaf("core.keyword", i, parent, func() { v.SearchKeyword(op.Word, true) })
			cs.searches++
			cs.scanned += v.Stats().Annotations
			cs.hits += len(anns)
		case kQuery:
			var q *query.Query
			var err error
			start = time.Now()
			parse := t.leaf("query.parse", i, parent, func() { q, err = query.Parse(queryOf(op)) })
			if err != nil {
				return result{err: err}
			}
			res, err := proc.ExecuteParsedCtx(ctx, q, query.DefaultOptions)
			r.dur = time.Since(start)
			if err != nil {
				return result{err: err}
			}
			r.hits = res.Stats.Matches
			if cs == nil {
				break
			}
			cs.parseDur += parse
			cs.queries++
			cs.bindings += res.Stats.BindingsTried
			cs.matches += res.Stats.Matches
			if len(res.Annotations) >= 2 {
				ids := []uint64{res.Annotations[0].ID, res.Annotations[1].ID}
				cs.connectDur += t.leaf("agraph.connect", i, parent, func() { _, _ = s.View().ConnectAnnotations(ids...) })
				cs.connects++
			}
		case kRuleAdd:
			var rule prop.Rule
			_ = json.Unmarshal([]byte(op.Body), &rule) // generated by makeStream
			start = time.Now()
			r.err = eng.AddRule(rule)
			r.dur = time.Since(start)
		case kRuleDel:
			start = time.Now()
			r.err = eng.DeleteRule(op.Rule)
			r.dur = time.Since(start)
		default:
			start = time.Now()
			r.hits, r.err = lookup(s.View(), op.Kind, id)
			r.dur = time.Since(start)
		}
		return r
	}
}

// lookup runs a lookup op on a view (or the merged shard surface).
func lookup(v interface {
	Annotation(uint64) (*core.Annotation, error)
	RelatedAnnotations(uint64) ([]*core.Annotation, error)
	CorrelatedData(uint64) ([]core.CorrelatedItem, error)
	DerivedOnto(uint64) ([]core.DerivedFact, error)
}, kind string, id uint64) (int, error) {
	switch kind {
	case kGet:
		_, err := v.Annotation(id)
		return 1, err
	case kRelated:
		x, err := v.RelatedAnnotations(id)
		return len(x), err
	case kCorrelated:
		x, err := v.CorrelatedData(id)
		return len(x), err
	default:
		x, err := v.DerivedOnto(id)
		return len(x), err
	}
}

func queryOf(op Op) string {
	var q struct{ Query string }
	_ = json.Unmarshal([]byte(op.Body), &q) // generated by makeStream
	return q.Query
}

// durableExec commits and deletes through a durable store (or a shard
// store); reads go to its core view, which is all durable adds for them.
func backendExec(b backend, reads func(Op, uint64) (int, error)) executor {
	return func(_ int, op Op, id uint64, _ int) result {
		var r result
		switch op.Kind {
		case kCommit:
			bl, err := builder(b, b.NewAnnotation(), commitBody(op))
			if err != nil {
				return result{err: err}
			}
			ann, err := b.Commit(bl)
			if err != nil {
				return result{err: err}
			}
			r.id = ann.ID
		case kDelete:
			r.err = b.DeleteAnnotation(id)
		case kRuleAdd:
			var rule prop.Rule
			_ = json.Unmarshal([]byte(op.Body), &rule) // generated by makeStream
			r.err = b.AddRule(rule)
		case kRuleDel:
			r.err = b.DeleteRule(op.Rule)
		default:
			r.hits, r.err = reads(op, id)
		}
		return r
	}
}

func durableReads(d *durable.Store) func(Op, uint64) (int, error) {
	ctx := context.Background()
	return func(op Op, id uint64) (int, error) {
		s := d.Core()
		switch op.Kind {
		case kSearch:
			anns, err := s.View().SearchContentsCtx(ctx, searchExpr(op.Word))
			return len(anns), err
		case kQuery:
			res, err := query.NewProcessor(s).ExecuteCtx(ctx, queryOf(op), query.DefaultOptions)
			if err != nil {
				return 0, err
			}
			return res.Stats.Matches, nil
		}
		return lookup(s.View(), op.Kind, id)
	}
}

// mergeStats are the shard rung's read-merge timings: the merged search
// minus the slowest per-shard core search.
type mergeStats struct {
	merge    time.Duration
	searches int
}

func shardReads(sh *shard.Store, m *mergeStats) func(Op, uint64) (int, error) {
	ctx := context.Background()
	return func(op Op, id uint64) (int, error) {
		switch op.Kind {
		case kSearch:
			expr := searchExpr(op.Word)
			start := time.Now()
			anns, err := sh.SearchContentsCtx(ctx, expr)
			merged := time.Since(start)
			if m != nil && err == nil {
				var slowest time.Duration
				for k := 0; k < sh.NumShards(); k++ {
					t0 := time.Now()
					_, _ = sh.View(k).SearchContentsCtx(ctx, expr)
					slowest = max(slowest, time.Since(t0))
				}
				m.merge += merged - slowest
				m.searches++
			}
			return len(anns), err
		case kQuery:
			res, err := sh.Query(ctx, queryOf(op), query.DefaultOptions)
			if err != nil {
				return 0, err
			}
			return res.Stats.Matches, nil
		}
		return lookup(sh, op.Kind, id)
	}
}

// httpExec sends ops as HTTP requests, either straight into the
// handler (srvURL empty) or over loopback.
func httpExec(h http.Handler, client *http.Client, srvURL string) executor {
	return func(_ int, op Op, id uint64, _ int) result {
		method, path, body := requestOf(op, id)
		var rd io.Reader
		if body != "" {
			rd = bytes.NewReader([]byte(body))
		}
		var status int
		var raw []byte
		if srvURL == "" {
			req := httptest.NewRequest(method, path, rd)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			status, raw = rec.Code, rec.Body.Bytes()
		} else {
			req, err := http.NewRequest(method, srvURL+path, rd)
			if err != nil {
				return result{err: err}
			}
			resp, err := client.Do(req)
			if err != nil {
				return result{err: err}
			}
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return result{err: err}
			}
			status = resp.StatusCode
		}
		r := result{resp: len(raw)}
		if status >= 300 {
			return result{err: fmt.Errorf("%s %s: status %d: %s", method, path, status, truncate(raw))}
		}
		switch op.Kind {
		case kCommit:
			var v annView
			r.err = json.Unmarshal(raw, &v)
			r.id = v.ID
		case kSearch, kRelated:
			var v []json.RawMessage
			r.err = json.Unmarshal(raw, &v)
			r.hits = len(v)
		case kQuery:
			var v queryView
			r.err = json.Unmarshal(raw, &v)
			r.hits = v.Matches
		}
		return r
	}
}

// requestOf is the HTTP form of an op.
func requestOf(op Op, id uint64) (method, path, body string) {
	ids := strconv.FormatUint(id, 10)
	switch op.Kind {
	case kCommit:
		return http.MethodPost, "/api/annotations", op.Body
	case kDelete:
		return http.MethodDelete, "/api/annotations/" + ids, ""
	case kQuery:
		return http.MethodPost, "/api/query", op.Body
	case kSearch:
		return http.MethodPost, "/api/search", op.Body
	case kRuleAdd:
		return http.MethodPost, "/api/rules", op.Body
	case kRuleDel:
		return http.MethodDelete, "/api/rules/" + op.Rule, ""
	case kGet:
		return http.MethodGet, "/api/annotations/" + ids, ""
	case kProvenance:
		return http.MethodGet, "/api/provenance/" + ids, ""
	}
	return http.MethodGet, "/api/annotations/" + ids + "/" + op.Kind, ""
}

// rung names, top to bottom.
const (
	rNet     = "net"
	rHTTP    = "httpapi"
	rHTTPOff = "httpapi.untraced"
	rShard1  = "shard1"
	rShard2  = "shard2"
	rDurable = "durable"
	rCore    = "core"
)

// rung is one layer's entry point in the interleaved replay.
type rung struct {
	name string
	t    *tracer
	ex   executor
	res  []result
	ids  []uint64
}

// replayAll runs every op at every rung in turn, so the rungs compared
// for a self time ran the same op back to back. Deletes and lookups of
// earlier commits resolve to the IDs each rung assigned. When swap names
// two rungs, they trade places on odd ops, so neither gains from its
// position in the order.
func replayAll(ops []Op, rungs []*rung, swap ...int) {
	base := 0
	if len(rungs[0].res) > 0 {
		base = len(rungs[0].res) // continuing an earlier chunk
	}
	for _, r := range rungs {
		r.res = append(r.res, make([]result, len(ops))...)
		r.ids = append(r.ids, make([]uint64, len(ops))...)
	}
	order := append([]*rung(nil), rungs...)
	for j, op := range ops {
		i := base + j
		copy(order, rungs)
		if len(swap) == 2 && i%2 == 1 {
			order[swap[0]], order[swap[1]] = order[swap[1]], order[swap[0]]
		}
		for _, r := range order {
			id := op.Target
			if op.Ref >= 0 {
				id = r.ids[op.Ref]
			}
			sp := r.t.begin(r.name, i, -1)
			start := time.Now()
			res := r.ex(i, op, id, sp)
			if res.dur == 0 {
				res.dur = time.Since(start)
			}
			r.t.end(sp)
			r.ids[i], r.res[i] = res.id, res
		}
	}
}

// runTraced is the --trace 1 run. The core rung first replays alone, so
// its allocation counts and GC share see no other store's work; then all
// rungs replay interleaved for the self times.
func runTraced(sp spec, cfg config, work string) (*outcome, error) {
	w, err := newWorld(routeShards)
	if err != nil {
		return nil, err
	}
	st, err := buildSeed(sp, w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("seed state: %w", err)
	}
	strm := makeStream(sp, w, st, cfg.seed, cfg.seconds)
	ops := strm.Ops
	if len(ops) > traceOps {
		ops = ops[:traceOps]
	}
	out := &outcome{all: newMetrics(), record: map[string]any{}}
	ms := out.all
	t := &tracer{on: true, origin: time.Now()}
	untraced := &tracer{origin: t.origin}

	// persist: decode and load of the seed snapshot.
	var snap *persist.Snapshot
	d := t.leaf("persist.decode", -1, -1, func() { snap, err = persist.Decode(bytes.NewReader(st.snap)) })
	if err != nil {
		return nil, err
	}
	ms.set("persist.decode_ms", ms2(d), "ms", 0)
	var cstore *core.Store
	d = t.leaf("persist.load", -1, -1, func() { cstore, err = persist.Load(snap) })
	if err != nil {
		return nil, err
	}
	ms.set("persist.load_ms", ms2(d), "ms", 0)
	seedView := cstore.View()
	d = t.leaf("prop.recompute", -1, -1, func() { prop.Attach(cstore).Recompute(seedView) })
	ms.set("prop.recompute_ms", ms2(d), "ms", 0)

	// Core rung alone, for the counts and leaf timings. Allocation counts
	// repeat exactly only if sync.Pool contents do: pools are per P and
	// emptied by collections, so this pass runs on one P with the
	// collector off, collecting twice (emptying the pools) at fixed op
	// counts.
	var cs coreStats
	alone := &rung{name: rCore, t: t, ex: coreExec(t, cstore, &cs)}
	procs := runtime.GOMAXPROCS(1)
	gcPercent := debug.SetGCPercent(-1)
	for lo := 0; lo < len(ops); lo += gcEvery {
		runtime.GC()
		runtime.GC()
		replayAll(ops[lo:min(lo+gcEvery, len(ops))], []*rung{alone})
	}
	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(procs)
	var endSnap bytes.Buffer
	d = t.leaf("persist.export", -1, -1, func() {
		var es *persist.Snapshot
		if es, err = persist.Export(cstore); err == nil {
			err = persist.WriteSnapshot(es, &endSnap)
		}
	})
	if err != nil {
		return nil, err
	}
	ms.set("persist.export_ms", ms2(d), "ms", 0)
	ms.set("persist.snapshot_bytes_per_ann", float64(endSnap.Len())/float64(max(cstore.Stats().Annotations, 1)), "B", 0)
	cstore = nil

	// Every other rung, each on its own store restored from the seed.
	var closers []func() error
	defer func() {
		for _, c := range closers {
			_ = c() // error path only; the success path closes below
		}
	}()
	pair, err := persist.Load(snap)
	if err != nil {
		return nil, err
	}
	ddir := filepath.Join(work, "durable")
	dst, err := openDurable(ddir, snap)
	if err != nil {
		return nil, err
	}
	closers = append(closers, dst.Close)
	var shards [2]*shard.Store
	var merge mergeStats
	for k, n := range []int{1, 2} {
		if shards[k], err = openShard(filepath.Join(work, fmt.Sprintf("shard%d", n)), n, snap); err != nil {
			return nil, err
		}
		closers = append(closers, shards[k].Close)
	}
	hOff, closeOff, err := openHandler(filepath.Join(work, rHTTPOff), sp.Shards, snap)
	if err != nil {
		return nil, err
	}
	closers = append(closers, closeOff)
	hOn, closeOn, err := openHandler(filepath.Join(work, rHTTP), sp.Shards, snap)
	if err != nil {
		return nil, err
	}
	closers = append(closers, closeOn)
	hNet, closeNet, err := openHandler(filepath.Join(work, rNet), sp.Shards, snap)
	if err != nil {
		return nil, err
	}
	closers = append(closers, closeNet)
	srv := httptest.NewServer(hNet)
	client := srv.Client()
	walBefore := dst.Stats().WAL
	rungs := []*rung{
		{name: rCore, t: untraced, ex: coreExec(untraced, pair, nil)},
		{name: rDurable, t: t, ex: backendExec(dst, durableReads(dst))},
		{name: rShard1, t: t, ex: backendExec(shards[0], shardReads(shards[0], nil))},
		{name: rShard2, t: t, ex: backendExec(shards[1], shardReads(shards[1], &merge))},
		{name: rHTTPOff, t: untraced, ex: httpExec(hOff, nil, "")},
		{name: rHTTP, t: t, ex: httpExec(hOn, nil, "")},
		{name: rNet, t: t, ex: httpExec(nil, client, srv.URL)},
	}
	cpu0 := readCPU()
	replayAll(ops, rungs, 4, 5) // httpapi with spans off and on
	cpu1 := readCPU()
	if cpu1.total > cpu0.total {
		ms.set("core.gc_cpu_frac", (cpu1.gc-cpu0.gc)/(cpu1.total-cpu0.total), "frac", 0)
	}
	client.CloseIdleConnections()
	srv.Close()
	res := map[string][]result{}
	for _, r := range rungs {
		res[r.name] = r.res
	}
	res["core.alone"] = alone.res

	commits := 0
	for _, op := range ops {
		if op.Kind == kCommit {
			commits++
		}
	}
	ms.set("shard.cross_commit_frac", float64(shards[1].CrossShardCommits())/float64(max(commits, 1)), "frac", 0)
	var lo, hi int64 = -1, 0
	for _, l := range shards[1].LoadStats() {
		hi = max(hi, l.BusyMicros)
		if lo < 0 || l.BusyMicros < lo {
			lo = l.BusyMicros
		}
	}
	ms.set("shard.busy_skew", float64(hi)/float64(max(lo, 1)), "ratio", 0)
	dstats := dst.Stats()
	ms.set("durable.compactions", float64(dstats.Compactions), "count", 0)
	if dr := dstats.WAL.Records - walBefore.Records; dr > 0 {
		ms.set("wal.bytes_per_commit", float64(dstats.WAL.Bytes-walBefore.Bytes)/float64(dr), "B", 0)
	}
	for _, c := range closers {
		if err := c(); err != nil {
			return nil, err
		}
	}
	closers = nil

	// Scan, open and compact a copy of the end-of-run directory of the
	// workload's own layout.
	cdir := filepath.Join(work, "copy")
	src := ddir
	if sp.Shards == 2 {
		src = filepath.Join(work, "shard2")
	}
	if err := copyDir(src, cdir); err != nil {
		return nil, err
	}
	logDir := cdir
	if sp.Shards == 2 {
		logDir = filepath.Join(cdir, "shard-0")
	}
	var info wal.RecoveryInfo
	d = t.leaf("wal.scan", -1, -1, func() {
		info, err = wal.Scan(filepath.Join(logDir, "graphitti.wal"), func([]byte) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	ms.set("wal.scan_ms", ms2(d), "ms", 0)
	out.record["wal_scan_records"] = info.Records
	if sp.Shards == 1 {
		var reopened *durable.Store
		d = t.leaf("durable.open", -1, -1, func() { reopened, err = durable.Open(cdir, durable.Options{}) })
		if err != nil {
			return nil, err
		}
		ms.set("durable.open_ms", ms2(d), "ms", 0)
		d = t.leaf("durable.compact", -1, -1, func() { err = reopened.Compact() })
		if err != nil {
			return nil, err
		}
		ms.set("durable.compact_ms", ms2(d), "ms", 0)
		if err := reopened.Close(); err != nil {
			return nil, err
		}
	} else {
		var reopened *shard.Store
		d = t.leaf("shard.open", -1, -1, func() { reopened, err = shard.Open(cdir, 2, durable.Options{}) })
		if err != nil {
			return nil, err
		}
		ms.set("durable.open_ms", ms2(d), "ms", 0)
		if err := reopened.Close(); err != nil {
			return nil, err
		}
		// compact_ms for the sharded layout: one shard pipeline.
		p, err := durable.Open(logDir, durable.Options{})
		if err != nil {
			return nil, err
		}
		d = t.leaf("durable.compact", -1, -1, func() { err = p.Compact() })
		if err != nil {
			return nil, err
		}
		ms.set("durable.compact_ms", ms2(d), "ms", 0)
		if err := p.Close(); err != nil {
			return nil, err
		}
	}

	// Every rung must agree with the core replay on every commit's ID,
	// and with the reference of its own layout on every result count.
	// Related sets legitimately differ between layouts: an annotation
	// homed on another shard is not linked into this shard's a-graph.
	names := []string{"core.alone", rCore, rDurable, rShard1, rShard2, rHTTPOff, rHTTP, rNet}
	layoutRef := map[string]string{rShard2: rShard2, rHTTPOff: rDurable, rHTTP: rDurable, rNet: rDurable}
	if sp.Shards == 2 {
		layoutRef = map[string]string{rShard2: rShard2, rHTTPOff: rShard2, rHTTP: rShard2, rNet: rShard2}
	}
	out.attempted = len(ops) * len(names)
	relatedDiffs := 0
	for i, op := range ops {
		c := res["core.alone"][i]
		if op.Kind == kRelated && res[rShard2][i].hits != c.hits {
			relatedDiffs++
		}
		for _, name := range names {
			r := res[name][i]
			ref := c
			if l, ok := layoutRef[name]; ok {
				ref = res[l][i]
			}
			var err error
			switch {
			case r.err != nil:
				err = r.err
			case op.Kind == kCommit && r.id != c.id:
				err = fmt.Errorf("commit id %d, core %d", r.id, c.id)
			case (op.Kind == kSearch || op.Kind == kQuery) && r.hits != c.hits:
				err = fmt.Errorf("%d results, core %d", r.hits, c.hits)
			case op.Kind == kRelated && r.hits != ref.hits:
				err = fmt.Errorf("%d related, reference %d", r.hits, ref.hits)
			}
			if err != nil {
				out.failed++
				if len(out.errs) < 20 {
					out.errs = append(out.errs, fmt.Sprintf("%s op %d %s: %v", name, i, op.Kind, err))
				}
			}
		}
	}
	out.record["related_layout_diffs"] = relatedDiffs

	// The HTTP rungs serve the workload's own layout; the shard rung at
	// N=1 over the durable rung is the router's constant cost.
	backendRung := rDurable
	if sp.Shards == 2 {
		backendRung = rShard2
	}
	isRead := func(k string) bool { return k == kSearch || k == kQuery }
	isCommit := func(k string) bool { return k == kCommit }
	is := func(kind string) func(string) bool { return func(k string) bool { return k == kind } }
	// Per-op times are summarised by their median: fsync outliers would
	// swamp a mean of differences.
	avg := func(keep func(string) bool, f func(i int) time.Duration) mean {
		var xs []float64
		for i, op := range ops {
			if keep(op.Kind) {
				xs = append(xs, float64(f(i).Nanoseconds())/1e3)
			}
		}
		if len(xs) == 0 {
			return mean{}
		}
		return mean{median(xs), len(xs)}
	}
	self := func(upper, lower string, keep func(string) bool) mean {
		return avg(keep, func(i int) time.Duration { return res[upper][i].dur - res[lower][i].dur })
	}
	direct := func(rung string, keep func(string) bool) mean {
		return avg(keep, func(i int) time.Duration { return res[rung][i].dur })
	}
	setUS := func(name string, m mean) {
		if m.n > 0 {
			ms.set(name, m.v, "us", m.n)
		}
	}
	setUS("net.rtt_self_us", self(rNet, rHTTP, func(string) bool { return true }))
	setUS("httpapi.commit_self_us", self(rHTTP, backendRung, isCommit))
	setUS("httpapi.read_self_us", self(rHTTP, backendRung, isRead))
	if v, n := respKB(ops, res[rHTTP], isRead); n > 0 {
		ms.set("httpapi.resp_kb_per_read", v, "KB", n)
	}
	setUS("shard.commit_self_us", self(rShard1, rDurable, isCommit))
	if merge.searches > 0 {
		ms.set("shard.read_merge_us", float64(merge.merge.Nanoseconds())/1e3/float64(merge.searches), "us", merge.searches)
	}
	setUS("durable.commit_self_us", self(rDurable, rCore, isCommit))
	on, off := direct(rHTTP, func(string) bool { return true }), direct(rHTTPOff, func(string) bool { return true })
	if off.v > 0 {
		ms.set("trace.overhead_frac", (on.v-off.v)/off.v, "frac", 0)
	}
	setUS("core.commit_us", direct(rCore, isCommit))
	setUS("core.delete_us", direct(rCore, is(kDelete)))
	setUS("core.lookup_us", direct(rCore, func(k string) bool { return class(k) == "lookup" }))
	if cs.commits > 0 {
		// Medians: a few commits' counts move by an allocation or two
		// between runs (the store iterates maps in random order), the
		// median commit's do not. The means are in the record.
		ms.set("core.commit_allocs", median(cs.allocs), "count", cs.commits)
		ms.set("core.commit_kb", median(cs.kb), "KB", cs.commits)
		out.record["core_commit_allocs_mean"] = float64(cs.commitAllocs) / float64(cs.commits)
		out.record["core_commit_kb_mean"] = float64(cs.commitBytes) / 1024 / float64(cs.commits)
		ms.set("prop.delta_us", float64(cs.deltaDur.Nanoseconds())/1e3/float64(cs.commits), "us", cs.commits)
		ms.set("prop.facts_per_commit", float64(cs.facts)/float64(cs.commits), "count", cs.commits)
	}
	if cs.searches > 0 {
		setUS("core.search_us", direct(rCore, is(kSearch)))
		ms.set("core.keyword_us", float64(cs.keywordDur.Nanoseconds())/1e3/float64(cs.searches), "us", cs.searches)
		ms.set("core.scanned_per_hit", float64(cs.scanned)/float64(max(cs.hits, 1)), "count", cs.searches)
		ms.set("xquery.compile_us", float64(cs.compileDur.Nanoseconds())/1e3/float64(cs.searches), "us", cs.searches)
	}
	if cs.queries > 0 {
		ms.set("query.parse_us", float64(cs.parseDur.Nanoseconds())/1e3/float64(cs.queries), "us", cs.queries)
		m := direct(rCore, is(kQuery))
		ms.set("query.exec_us", m.v-float64(cs.parseDur.Nanoseconds())/1e3/float64(cs.queries), "us", m.n)
		ms.set("query.bindings_per_match", float64(cs.bindings)/float64(max(cs.matches, 1)), "count", cs.queries)
	}
	if cs.connects > 0 {
		ms.set("agraph.connect_us", float64(cs.connectDur.Nanoseconds())/1e3/float64(cs.connects), "us", cs.connects)
	}
	out.record["replayed_ops"] = len(ops)
	out.record["unmeasured"] = map[string]string{
		"wal.fsyncs_per_commit": "needs concurrent clients; the --trace 0 run reports it from /api/stats",
		"wal.max_batch":         "needs concurrent clients; the --trace 0 run reports it from /api/stats",
		"gen.lag_p99_ms":        "open-loop generator only; the --trace 0 run reports it",
		"client.cpu_frac":       "open-loop generator only; the --trace 0 run reports it",
	}
	return out, writeSpans(cfg, sp, t.spans)
}

// mean is a per-op time summarised over n ops.
type mean struct {
	v float64
	n int
}

func ms2(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func respKB(ops []Op, res []result, keep func(string) bool) (float64, int) {
	var sum, n int
	for i, op := range ops {
		if keep(op.Kind) {
			sum += res[i].resp
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / 1024 / float64(n), n
}

type cpuSample struct{ gc, total float64 }

// readCPU reads the runtime's CPU-class estimates.
func readCPU() cpuSample {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return cpuSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func openDurable(dir string, snap *persist.Snapshot) (*durable.Store, error) {
	d, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return nil, err
	}
	if _, err := d.Restore(snap); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func openShard(dir string, n int, snap *persist.Snapshot) (*shard.Store, error) {
	sh, err := shard.Open(dir, n, durable.Options{})
	if err != nil {
		return nil, err
	}
	if err := sh.Restore(snap); err != nil {
		sh.Close()
		return nil, err
	}
	return sh, nil
}

// openHandler builds the handler the server would serve for the
// workload's shard count.
func openHandler(dir string, shards int, snap *persist.Snapshot) (http.Handler, func() error, error) {
	if shards == 1 {
		d, err := openDurable(dir, snap)
		if err != nil {
			return nil, nil, err
		}
		return httpapi.NewDurableHandler(d), d.Close, nil
	}
	sh, err := openShard(dir, shards, snap)
	if err != nil {
		return nil, nil, err
	}
	return httpapi.NewShardedHandler(sh), sh.Close, nil
}

// copyDir copies a data directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, raw, 0o644)
	})
}

// writeSpans writes the span list as JSON lines next to the build
// outputs, one file per workload and seed.
func writeSpans(cfg config, sp spec, spans []span) error {
	dir := filepath.Join(filepath.Dir(filepath.Clean(cfg.work)), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.Name, cfg.seed)), buf.Bytes(), 0o644)
}
