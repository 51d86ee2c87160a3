package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

// Everything the server receives is generated here from the workload
// seed: the seed state (objects, ontologies, rules and, for explore and
// fanout, annotations with planted ground truth) and the op stream.

// spec sizes one workload. Rate is the open-loop arrival rate. On a
// 2-core box it is about a third of closed-loop capacity for explore and
// fanout; ingest runs at about a sixth, because its op count is capped
// by the kill -9 recovery replay (about 1-2 ms per logged commit).
type spec struct {
	Name     string
	Shards   int
	SeedAnns int     // generated annotations in the seed state
	Rate     float64 // open-loop Poisson arrivals per second
	Mix      mix
	// CrossFrac is the share of commits carrying marks on two shards.
	CrossFrac float64
	// RuleEvery is the op distance between rule add/delete broadcast
	// pairs (0 = none).
	RuleEvery int
}

// mix is the share of each op class; lookups split evenly between get,
// related, correlated and provenance.
type mix struct{ Commit, Delete, Query, Search, Lookup float64 }

var specs = map[string]spec{
	"ingest": {Name: "ingest", Shards: 1, Rate: 100,
		Mix: mix{Commit: 0.90, Delete: 0.10}},
	"explore": {Name: "explore", Shards: 1, SeedAnns: 4000, Rate: 60,
		Mix: mix{Query: 0.30, Search: 0.25, Lookup: 0.30, Commit: 0.10, Delete: 0.05}},
	"fanout": {Name: "fanout", Shards: 2, SeedAnns: 2500, Rate: 100,
		Mix:       mix{Commit: 0.50, Delete: 0.05, Query: 0.15, Search: 0.15, Lookup: 0.15},
		CrossFrac: 0.05, RuleEvery: 2000},
}

// Fixed shape of the base studies.
const (
	vocabSize  = 50000
	segments   = 8
	seqsPerSeg = 4
	seqLen     = 2000
	domainLen  = seqLen + (seqsPerSeg-1)*seqLen/2 // segment domain [0, domainLen)
	images     = 48                               // Q1 at TP53 scale
	atlas      = "mouse-atlas"
	// recentGap keeps deletes and lookups of run-created annotations
	// this many ops behind their commit, so the target is almost always
	// acknowledged by the time it is due.
	recentGap = 64
)

// Planted keywords, added to some bodies. "protease" and "tp53" appear
// only in the planted F3 and Q1 ground truth. Vocabulary words are three
// consonant-vowel syllables and end in b, so none is a planted keyword.
const (
	kwHotspot  = "hotspot" // triggers the keyword-gated overlap rule
	kwCleavage = "cleavage"
)

var syllables = func() []string {
	var out []string
	for _, c := range "bcdfghjklmnprstvwxz" + "q" {
		for _, v := range "aeiou" {
			out = append(out, string(c)+string(v))
		}
	}
	return out
}()

// word returns vocabulary word i (0 <= i < vocabSize).
func word(i int) string {
	return syllables[i%100] + syllables[i/100%100] + syllables[i/10000%100]
}

// seedRules are installed in every seed state: keyword-gated interval
// overlap, shared referent and ontology closure.
var seedRules = []prop.Rule{
	{ID: "kw-overlap", Edge: prop.EdgeOverlap, Keyword: kwHotspot, Kind: "interval"},
	{ID: "shared", Edge: prop.EdgeSharedReferent},
	{ID: "closure", Edge: prop.EdgeOntologyClosure},
}

var termChoices = []termRef{
	{"go", "kinase"}, {"go", "polymerase"}, {"go", "serine-protease"},
	{"go", "metallo-protease"}, {"go", "hydrolase"},
	{"nif", "cortex"}, {"nif", "hippocampus"}, {"nif", "cerebellum"},
}

var creators = []string{"gupta", "condit", "martone", "chen", "ludaescher"}

// markSpec and commitReq mirror the JSON grammar of POST /api/annotations.
type markSpec struct {
	Type    string    `json:"type"`
	Domain  string    `json:"domain,omitempty"`
	SeqID   string    `json:"seqId,omitempty"`
	Lo      int64     `json:"lo,omitempty"`
	Hi      int64     `json:"hi,omitempty"`
	ImageID string    `json:"imageId,omitempty"`
	Rect    []float64 `json:"rect,omitempty"`
}

type termRef struct {
	Ontology string
	TermID   string
}

type commitReq struct {
	Creator string     `json:"creator"`
	Date    string     `json:"date"`
	Title   string     `json:"title,omitempty"`
	Body    string     `json:"body,omitempty"`
	Marks   []markSpec `json:"marks"`
	Terms   []termRef  `json:"terms,omitempty"`
}

// world lists the objects marks can land on, and which shard of a
// two-shard deployment owns each routing key. Every workload draws each
// commit's marks from one shard's keys (except fanout's deliberate
// cross-shard commits), so the same stream replays on a sharded store:
// a cross-shard commit whose off-home mark is an image region fails
// there, because the home shard does not hold the coordinate system.
type world struct {
	shards  int
	segs    []string
	seqs    []string
	seqDom  map[string]string
	imgs    []string
	shardOf map[string]int // routing key (domain) -> shard
	// per shard: segment domains, sequences and whether the atlas lives there
	segsOn  [][]string
	seqsOn  [][]string
	atlasOn int
}

func newWorld(shards int) (*world, error) {
	w := &world{shards: shards, seqDom: map[string]string{}, shardOf: map[string]int{}}
	r := core.Router{Shards: shards}
	w.segsOn = make([][]string, shards)
	w.seqsOn = make([][]string, shards)
	for s := 1; s <= segments; s++ {
		d := fmt.Sprintf("segment%d", s)
		w.segs = append(w.segs, d)
		k := r.ShardOfKey(d)
		w.shardOf[d] = k
		w.segsOn[k] = append(w.segsOn[k], d)
		for i := 0; i < seqsPerSeg; i++ {
			id := fmt.Sprintf("NC_%03d%02d", s-1, i) // workload.Influenza's accessions
			w.seqs = append(w.seqs, id)
			w.seqDom[id] = d
			w.seqsOn[k] = append(w.seqsOn[k], id)
		}
	}
	for i := 0; i < images; i++ {
		w.imgs = append(w.imgs, fmt.Sprintf("mouse-brain-%03d", i))
	}
	w.atlasOn = r.ShardOfKey(atlas)
	w.shardOf[atlas] = w.atlasOn
	for k := 0; k < shards; k++ {
		if len(w.segsOn[k]) == 0 {
			return nil, fmt.Errorf("shard %d owns no segment domain", k)
		}
	}
	return w, nil
}

// routeShards is the shard count marks are drawn for.
const routeShards = 2

// randomMark draws a fresh mark on shard k.
func (w *world) randomMark(rng *rand.Rand, k int) markSpec {
	segs, seqs, atlasOK := w.segsOn[k], w.seqsOn[k], w.atlasOn == k
	width := 20 + rng.Int63n(80)
	switch c := rng.Intn(3); {
	case c == 2 && atlasOK:
		x, y := float64(rng.Intn(900)), float64(rng.Intn(900))
		return markSpec{Type: "region", ImageID: w.imgs[rng.Intn(len(w.imgs))],
			Rect: []float64{x, y, x + float64(width), y + float64(20+rng.Intn(80))}}
	case c == 1:
		lo := rng.Int63n(seqLen - 100)
		return markSpec{Type: "sequence", SeqID: seqs[rng.Intn(len(seqs))], Lo: lo, Hi: lo + width}
	default:
		lo := rng.Int63n(domainLen - 100)
		return markSpec{Type: "interval", Domain: segs[rng.Intn(len(segs))], Lo: lo, Hi: lo + width}
	}
}

// gen draws commits. Regular marks are 20..99 wide; the off-home mark of
// a cross-shard commit is 101..180 wide at a position unique to its op,
// so it never collides with (and dedups onto) a referent homed on
// another shard.
type gen struct {
	rng     *rand.Rand
	w       *world
	zipf    *rand.Zipf
	popular [][]markSpec // per shard
	n       int          // commits drawn
}

func newGen(seed int64, w *world) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{rng: rng, w: w, zipf: rand.NewZipf(rng, 1.1, 1, vocabSize-1)}
	g.popular = make([][]markSpec, w.shards)
	for k := range g.popular {
		for i := 0; i < 200; i++ {
			g.popular[k] = append(g.popular[k], w.randomMark(rng, k))
		}
	}
	return g
}

// body draws 6..14 Zipf tokens plus, sometimes, a planted keyword.
func (g *gen) body() string {
	n := 6 + g.rng.Intn(9)
	toks := make([]string, 0, n+1)
	for i := 0; i < n; i++ {
		toks = append(toks, word(int(g.zipf.Uint64())))
	}
	switch p := g.rng.Intn(100); {
	case p < 10:
		toks = append(toks, kwHotspot)
	case p < 15:
		toks = append(toks, kwCleavage)
	}
	g.rng.Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	return strings.Join(toks, " ")
}

// commit draws one annotation: 1-3 marks on one shard (or, when cross,
// a home mark plus an off-home one) and 0-2 terms.
func (g *gen) commit(cross bool) commitReq {
	rng := g.rng
	g.n++
	home := rng.Intn(g.w.shards)
	nm := 1 + rng.Intn(3)
	if cross {
		nm = 1
	}
	var marks []markSpec
	seen := map[string]bool{}
	for len(marks) < nm {
		var m markSpec
		if rng.Intn(10) == 0 {
			m = g.popular[home][rng.Intn(len(g.popular[home]))]
		} else {
			m = g.w.randomMark(rng, home)
		}
		key := fmt.Sprint(m)
		if seen[key] {
			continue
		}
		seen[key] = true
		marks = append(marks, m)
	}
	if cross {
		other := (home + 1 + rng.Intn(g.w.shards-1)) % g.w.shards
		segs := g.w.segsOn[other]
		lo := int64(g.n*37) % (domainLen - 200)
		marks = append(marks, markSpec{Type: "interval", Domain: segs[g.n%len(segs)],
			Lo: lo, Hi: lo + 101 + int64(g.n%80)})
	}
	var terms []termRef
	for i, nt := 0, rng.Intn(3); i < nt; i++ {
		t := termChoices[rng.Intn(len(termChoices))]
		if len(terms) == 0 || terms[0] != t {
			terms = append(terms, t)
		}
	}
	return commitReq{
		Creator: creators[rng.Intn(len(creators))],
		Date:    fmt.Sprintf("2008-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)),
		Title:   fmt.Sprintf("note %d", g.n),
		Body:    g.body(),
		Marks:   marks,
		Terms:   terms,
	}
}

// marker is the mark-constructor surface shared by core, durable and
// shard stores.
type marker interface {
	MarkDomainInterval(string, interval.Interval) (*core.Referent, error)
	MarkSequenceInterval(string, interval.Interval) (*core.Referent, error)
	MarkImageRegion(string, rtree.Rect) (*core.Referent, error)
}

// builder resolves a commit request into a core builder, the way the
// HTTP handler does.
func builder(m marker, b *core.Builder, req commitReq) (*core.Builder, error) {
	b.Creator(req.Creator).Date(req.Date).Body(req.Body)
	if req.Title != "" {
		b.Title(req.Title)
	}
	for _, ms := range req.Marks {
		var ref *core.Referent
		var err error
		switch ms.Type {
		case "interval":
			ref, err = m.MarkDomainInterval(ms.Domain, interval.Interval{Lo: ms.Lo, Hi: ms.Hi})
		case "sequence":
			ref, err = m.MarkSequenceInterval(ms.SeqID, interval.Interval{Lo: ms.Lo, Hi: ms.Hi})
		default:
			ref, err = m.MarkImageRegion(ms.ImageID, rtree.Rect2D(ms.Rect[0], ms.Rect[1], ms.Rect[2], ms.Rect[3]))
		}
		if err != nil {
			return nil, err
		}
		b.Refer(ref)
	}
	for _, t := range req.Terms {
		b.OntologyRef(t.Ontology, t.TermID)
	}
	return b, nil
}

// seedState is the generated starting point of a workload: the snapshot
// the server is started from plus the ground truth the checks use.
type seedState struct {
	snap      []byte
	anns      int
	bodies    map[uint64]string // seed annotation -> body
	creator   map[uint64]string
	stable    []uint64 // never deleted: lookup targets
	deletable []uint64 // delete targets
	protease  []uint64 // planted chain annotations (F3 ground truth)
	tp53      []uint64 // planted TP53 findings (Q1 ground truth)
	qualImgs  []string // images with >= 2 DCN regions
}

// baseStore assembles the objects every workload starts from, reusing
// the workload package's studies: the influenza segment domains and
// sequences, the neuro atlas and images, both ontologies, and the rules.
func baseStore() (*core.Store, error) {
	inf, err := workload.Influenza(workload.InfluenzaConfig{
		Seed: 42, Segments: segments, SeqsPerSeg: seqsPerSeg, SeqLen: seqLen})
	if err != nil {
		return nil, err
	}
	neu, err := workload.Neuroscience(workload.NeuroConfig{Seed: 7, Images: images})
	if err != nil {
		return nil, err
	}
	s := core.NewStore()
	if err := s.RegisterOntology(workload.EnzymeOntology()); err != nil {
		return nil, err
	}
	if err := s.RegisterOntology(workload.BrainOntology()); err != nil {
		return nil, err
	}
	for _, id := range inf.SequenceIDs {
		sq, _, err := inf.Store.Sequence(id)
		if err != nil {
			return nil, err
		}
		if err := s.RegisterSequence(sq); err != nil {
			return nil, err
		}
	}
	cs, err := neu.Store.CoordinateSystem(neu.System)
	if err != nil {
		return nil, err
	}
	if err := s.RegisterCoordinateSystem(cs); err != nil {
		return nil, err
	}
	for _, id := range neu.ImageIDs {
		im, err := neu.Store.Image(id)
		if err != nil {
			return nil, err
		}
		if err := s.RegisterImage(im); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// buildSeed generates the seed state of sp from seed.
func buildSeed(sp spec, w *world, seed int64) (*seedState, error) {
	s, err := baseStore()
	if err != nil {
		return nil, err
	}
	st := &seedState{bodies: map[uint64]string{}, creator: map[uint64]string{}}
	commit := func(req commitReq, stable bool) (uint64, error) {
		b, err := builder(s, s.NewAnnotation(), req)
		if err != nil {
			return 0, err
		}
		ann, err := s.Commit(b)
		if err != nil {
			return 0, err
		}
		st.bodies[ann.ID] = req.Body
		st.creator[ann.ID] = req.Creator
		if stable {
			st.stable = append(st.stable, ann.ID)
		} else {
			st.deletable = append(st.deletable, ann.ID)
		}
		return ann.ID, nil
	}
	if sp.SeedAnns > 0 {
		// Planted Q1 ground truth: every third image has two regions in
		// the Deep Cerebellar nuclei; four TP53 findings mark a region
		// on each qualifying image.
		for i, img := range w.imgs {
			n := 1
			if i%3 == 0 {
				n = 2
				st.qualImgs = append(st.qualImgs, img)
			}
			for k := 0; k < n; k++ {
				x := float64(200 + 300*k + i%50)
				if _, err := commit(commitReq{Creator: "martone", Date: "2007-10-12",
					Body:  "expression in the deep cerebellar nuclei",
					Marks: []markSpec{{Type: "region", ImageID: img, Rect: []float64{x, x, x + 60, x + 60}}},
					Terms: []termRef{{"nif", "deep-cerebellar-nuclei"}}}, true); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < 4; i++ {
			req := commitReq{Creator: "gupta", Date: "2007-11-20",
				Title: fmt.Sprintf("TP53 finding %d", i),
				Body:  "correlated expression of protein.TP53 across cerebellar sections"}
			for _, img := range st.qualImgs {
				x := float64(100 + i*40)
				req.Marks = append(req.Marks, markSpec{Type: "region", ImageID: img, Rect: []float64{x, x, x + 35, x + 35}})
			}
			id, err := commit(req, true)
			if err != nil {
				return nil, err
			}
			st.tp53 = append(st.tp53, id)
		}
		// Planted F3 ground truth: three chains of four consecutive
		// disjoint protease windows, on shard-local segments.
		for c := 0; c < 3; c++ {
			seg := w.segs[c]
			for k := 0; k < 4; k++ {
				lo := int64(c*500 + k*60)
				id, err := commit(commitReq{Creator: "gupta", Date: "2007-11-02",
					Title: fmt.Sprintf("protease chain %d link %d", c, k),
					Body:  "protease cleavage site in this window",
					Marks: []markSpec{{Type: "interval", Domain: seg, Lo: lo, Hi: lo + 50}},
					Terms: []termRef{{"go", "serine-protease"}}}, true)
				if err != nil {
					return nil, err
				}
				st.protease = append(st.protease, id)
			}
		}
		g := newGen(seed^0x5eed, w)
		for i := 0; i < sp.SeedAnns; i++ {
			if _, err := commit(g.commit(false), g.rng.Intn(10) < 7); err != nil {
				return nil, err
			}
		}
	}
	// Rules last, as one batch, the way a snapshot load installs them.
	if err := prop.Attach(s).AddRules(seedRules...); err != nil {
		return nil, err
	}
	snap, err := persist.Export(s)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := persist.WriteSnapshot(snap, &sb); err != nil {
		return nil, err
	}
	st.snap = []byte(sb.String())
	st.anns = s.Stats().Annotations
	return st, nil
}

// Op is one generated request. Deletes and lookups name their target
// either as a seed annotation ID or as the index of the earlier commit
// op whose acknowledged ID they use.
type Op struct {
	Kind    string  `json:"k"`
	Due     float64 `json:"due,omitempty"` // open loop: seconds after phase start
	Body    string  `json:"b,omitempty"`   // JSON request body
	Target  uint64  `json:"t,omitempty"`   // seed annotation ID
	Ref     int     `json:"r"`             // commit op index, or -1
	Word    string  `json:"w,omitempty"`   // search keyword
	Tmpl    int     `json:"q,omitempty"`   // query template
	Creator string  `json:"c,omitempty"`   // expected creator (commit, get)
	Rule    string  `json:"rule,omitempty"`
	Victim  bool    `json:"v,omitempty"` // commit: will be deleted later
}

// Op kinds.
const (
	kCommit     = "commit"
	kDelete     = "delete"
	kQuery      = "query"
	kSearch     = "search"
	kGet        = "get"
	kRelated    = "related"
	kCorrelated = "correlated"
	kProvenance = "provenance"
	kRuleAdd    = "rule_add"
	kRuleDel    = "rule_del"
)

// class maps an op kind onto its latency metric family.
func class(kind string) string {
	switch kind {
	case kGet, kRelated, kCorrelated, kProvenance:
		return "lookup"
	case kRuleAdd, kRuleDel:
		return "rule"
	}
	return kind
}

// Query templates: the F3 select-graph join, the Q1 TP53 select
// contents, and a provenance select referents.
const (
	tmplF3 = iota
	tmplQ1
	tmplProv
)

func queryText(tmpl int, seg string) string {
	switch tmpl {
	case tmplF3:
		return `select graph where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`
	case tmplQ1:
		return `select contents where {
  ?a isa annotation ; contains "tp53" .
  ?r isa referent ; kind region .
  ?o isa object ; type images .
  ?a annotates ?r .
  ?r marks ?o .
}`
	default:
		return fmt.Sprintf(`select referents where { ?r isa referent ; provenance "kw-overlap" ; domain %q . } limit %d`, seg, provLimit)
	}
}

// provLimit is the provenance template's limit clause.
const provLimit = 50

func searchExpr(w string) string { return fmt.Sprintf(`contains(/annotation/body, %q)`, w) }

// stream is a workload's op sequence: the open-loop phase followed by
// the closed-loop phase.
type stream struct {
	Ops    []Op
	Open   int // ops [0, Open) run open loop
	Shards int
}

// Phase sizes as shares of the run length: the open loop lasts
// openShare × seconds; the closed loop runs closedShare × seconds × rate
// ops, which takes well under the rest of the run at 2-6x the open rate.
const (
	openShare   = 0.75
	closedShare = 0.6
)

// makeStream generates the op stream for sp. The op count follows from
// the rate and the run length, so a given seed and length always do the
// same work.
func makeStream(sp spec, w *world, st *seedState, seed int64, seconds float64) stream {
	rng := rand.New(rand.NewSource(seed))
	g := newGen(seed, w)
	// Op classes and search keywords are drawn by inverting their
	// distributions at golden-ratio points with a seeded offset: every
	// stretch of the stream then holds close to the nominal mix and the
	// nominal share of head keywords (whose searches cost the most), so
	// runs differ in which ops they send, not in how heavy the run is.
	mixAt := golden(rng.Float64())
	kwAt := golden(rng.Float64())
	nSearch := 0
	openN := int(sp.Rate * seconds * openShare)
	closedN := int(sp.Rate * seconds * closedShare)
	total := openN + closedN
	ops := make([]Op, 0, total)

	stable := append([]uint64(nil), st.stable...)
	seedVictims := append([]uint64(nil), st.deletable...)
	rng.Shuffle(len(seedVictims), func(i, j int) { seedVictims[i], seedVictims[j] = seedVictims[j], seedVictims[i] })
	var runVictims, runStable []int // commit op indexes
	due := 0.0
	rule := ""
	for i := 0; i < total; i++ {
		var op Op
		op.Ref = -1
		kind := pick(mixAt(i), sp.Mix)
		if sp.RuleEvery > 0 {
			switch i % sp.RuleEvery {
			case sp.RuleEvery / 2:
				kind, rule = kRuleAdd, fmt.Sprintf("bench-rule-%d", i)
			case sp.RuleEvery - 1:
				if rule != "" {
					kind = kRuleDel
				}
			}
		}
		// Only targets at least recentGap ops old are eligible.
		ripeVictims := sort.SearchInts(runVictims, i-recentGap+1)
		ripeStable := sort.SearchInts(runStable, i-recentGap+1)
		switch kind {
		case kDelete:
			switch {
			case ripeVictims > 0:
				j := rng.Intn(ripeVictims)
				op.Ref = runVictims[j]
				runVictims = append(runVictims[:j], runVictims[j+1:]...)
			case len(seedVictims) > 0:
				op.Target, seedVictims = seedVictims[0], seedVictims[1:]
			default:
				kind = kCommit
			}
		case "lookup":
			n := len(stable) + ripeStable
			if n == 0 {
				kind = kCommit
				break
			}
			kind = []string{kGet, kRelated, kCorrelated, kProvenance}[rng.Intn(4)]
			if j := rng.Intn(n); j < len(stable) {
				op.Target = stable[j]
				op.Creator = st.creator[op.Target]
			} else {
				op.Ref = runStable[j-len(stable)]
				op.Creator = ops[op.Ref].Creator
			}
		case kQuery:
			op.Tmpl = rng.Intn(3)
			seg := w.segs[rng.Intn(len(w.segs))]
			if op.Tmpl == tmplProv {
				op.Word = seg
			}
			body, _ := json.Marshal(map[string]string{"query": queryText(op.Tmpl, seg)})
			op.Body = string(body)
		case kSearch:
			op.Word = word(searchRank(kwAt(nSearch)))
			nSearch++
			body, _ := json.Marshal(map[string]string{"expr": searchExpr(op.Word)})
			op.Body = string(body)
		case kRuleAdd:
			op.Rule = rule
			body, _ := json.Marshal(prop.Rule{ID: rule, Edge: prop.EdgeOverlap, Keyword: kwCleavage, Kind: "interval"})
			op.Body = string(body)
		case kRuleDel:
			op.Rule, rule = rule, ""
		}
		if kind == kCommit {
			cross := sp.CrossFrac > 0 && rng.Float64() < sp.CrossFrac
			req := g.commit(cross)
			body, _ := json.Marshal(req)
			op.Body, op.Creator = string(body), req.Creator
			// Enough victims to sustain the delete share.
			if rng.Float64() < 2*sp.Mix.Delete/(sp.Mix.Commit+1e-9) {
				op.Victim = true
				runVictims = append(runVictims, i)
			} else {
				runStable = append(runStable, i)
			}
		}
		op.Kind = kind
		if i < openN {
			due += rng.ExpFloat64() / sp.Rate
			op.Due = due
		}
		ops = append(ops, op)
	}
	return stream{Ops: ops, Open: openN, Shards: sp.Shards}
}

// golden returns the low-discrepancy sequence u_i = frac(off + i·φ⁻¹).
func golden(off float64) func(int) float64 {
	return func(i int) float64 {
		_, f := math.Modf(off + float64(i)*0.6180339887498949)
		return f
	}
}

// searchCDF is the cumulative Zipf distribution of search keyword ranks,
// P(k) ∝ (8+k)^-1.1: hit counts range from none to thousands.
var searchCDF = func() []float64 {
	cdf := make([]float64, vocabSize)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(8+float64(k), -1.1)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}()

// searchRank maps u in [0,1) onto a keyword rank.
func searchRank(u float64) int {
	return min(sort.SearchFloat64s(searchCDF, u), vocabSize-1)
}

// pick maps u in [0,1) onto an op class by the mix shares.
func pick(u float64, m mix) string {
	x := u * (m.Commit + m.Delete + m.Query + m.Search + m.Lookup)
	for _, c := range []struct {
		share float64
		kind  string
	}{{m.Commit, kCommit}, {m.Delete, kDelete}, {m.Query, kQuery}, {m.Search, kSearch}, {m.Lookup, "lookup"}} {
		if x < c.share {
			return c.kind
		}
		x -= c.share
	}
	return kCommit
}

// commitBody decodes a commit op's request (for checks and the traced
// replay).
func commitBody(op Op) commitReq {
	var req commitReq
	_ = json.Unmarshal([]byte(op.Body), &req) // generated by makeStream
	return req
}
