package shard

// Merged reads: every read pins one view per shard and combines the
// per-shard answers deterministically — concatenation plus ID-order (or
// name-order) merge, exploiting that IDs are globally unique and that
// each object is homed on exactly one shard. The per-shard view set is
// not a single atomic snapshot of the whole deployment: each shard's
// view is individually consistent, and a reader can observe shard A's
// commit before shard B's concurrent one (the anomaly-free property the
// paper's setting needs is per-annotation atomicity, which per-shard
// views preserve).

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/query"
)

// Views pins the current view of every shard, indexed by shard.
func (s *Store) Views() []*core.View {
	out := make([]*core.View, s.NumShards())
	for k := range out {
		out[k] = s.shardCore(k).View()
	}
	return out
}

// View returns shard k's current view.
func (s *Store) View(k int) *core.View { return s.shardCore(k).View() }

// Epoch returns the sum of the per-shard view epochs: the total number
// of mutations published across the deployment.
func (s *Store) Epoch() uint64 {
	var sum uint64
	for _, v := range s.Views() {
		sum += v.Epoch()
	}
	return sum
}

// Stats merges the per-shard component sizes. Routed components sum;
// broadcast components (ontologies) read from shard 0; components that
// can appear on several shards (graph nodes for shared terms, keywords,
// interval-tree domains touched by cross-shard commits) count the union.
func (s *Store) Stats() core.Stats {
	views := s.Views()
	var st core.Stats
	domains := map[string]bool{}
	keywords := map[string]bool{}
	nodes := map[agraph.NodeRef]bool{}
	for _, v := range views {
		vs := v.Stats()
		st.Annotations += vs.Annotations
		st.Referents += vs.Referents
		st.Sequences += vs.Sequences
		st.Alignments += vs.Alignments
		st.Trees += vs.Trees
		st.InteractionGraphs += vs.InteractionGraphs
		st.Images += vs.Images
		st.RTrees += vs.RTrees
		st.GraphEdges += vs.GraphEdges
		st.Derived += vs.Derived
		for _, d := range v.IntervalDomains() {
			domains[d] = true
		}
		v.EachKeyword(func(w string) bool { keywords[w] = true; return true })
		for _, n := range v.Graph().Nodes() {
			nodes[n] = true
		}
	}
	st.Ontologies = views[0].Stats().Ontologies
	st.IntervalTrees = len(domains)
	st.Keywords = len(keywords)
	st.GraphNodes = len(nodes)
	return st
}

// Annotation returns a committed annotation from its owner shard.
func (s *Store) Annotation(id uint64) (*core.Annotation, error) {
	for _, v := range s.Views() {
		if ann, err := v.Annotation(id); err == nil {
			return ann, nil
		}
	}
	return nil, errNoSuchAnnotation(id)
}

// Referent returns a committed referent from its owner shard.
func (s *Store) Referent(id uint64) (*core.Referent, error) {
	for _, v := range s.Views() {
		if r, err := v.Referent(id); err == nil {
			return r, nil
		}
	}
	return nil, errNoSuchReferent(id)
}

// Annotations returns all committed annotations across shards, merged in
// ID order.
func (s *Store) Annotations() []*core.Annotation {
	var out []*core.Annotation
	for _, v := range s.Views() {
		out = append(out, v.Annotations()...)
	}
	sortByID(out)
	return out
}

// AnnotationIDs returns the IDs of all committed annotations, sorted.
func (s *Store) AnnotationIDs() []uint64 {
	var out []uint64
	for _, v := range s.Views() {
		out = append(out, v.AnnotationIDs()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Referents returns all committed referents across shards in ID order.
func (s *Store) Referents() []*core.Referent {
	var out []*core.Referent
	for _, v := range s.Views() {
		out = append(out, v.Referents()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ObjectList returns every registered data object across shards, sorted
// by (type, id) — each object is homed on exactly one shard, so this is
// the same list the unsharded store would hold.
func (s *Store) ObjectList() []core.ObjectHandle {
	var out []core.ObjectHandle
	for _, v := range s.Views() {
		out = append(out, v.ObjectList()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Ontologies returns the registered ontology names (broadcast; shard 0).
func (s *Store) Ontologies() []string { return s.shardCore(0).Ontologies() }

// ReferentsAt routes the point stab to the domain's owner shard.
func (s *Store) ReferentsAt(domain string, pos int64) []*core.Referent {
	return s.shardCore(s.router.ShardOfKey(domain)).ReferentsAt(domain, pos)
}

// SearchKeyword merges the per-shard keyword hits in ID order.
func (s *Store) SearchKeyword(word string, useIndex bool) []*core.Annotation {
	var out []*core.Annotation
	for _, v := range s.Views() {
		out = append(out, v.SearchKeyword(word, useIndex)...)
	}
	sortByID(out)
	return out
}

// SearchContents evaluates a content search against every shard.
func (s *Store) SearchContents(expr string) ([]*core.Annotation, error) {
	return s.SearchContentsCtx(context.Background(), expr)
}

// SearchContentsCtx fans the scan out across shards (each shard scans
// its own view in parallel internally) and merges the hits in ID order —
// byte-identical to the unsharded scan of the merged annotation set.
func (s *Store) SearchContentsCtx(ctx context.Context, expr string) ([]*core.Annotation, error) {
	views := s.Views()
	results := make([][]*core.Annotation, len(views))
	if err := s.eachShard(func(k int) (err error) {
		results[k], err = views[k].SearchContentsCtx(ctx, expr)
		return err
	}); err != nil {
		return nil, err
	}
	var out []*core.Annotation
	for _, r := range results {
		out = append(out, r...)
	}
	sortByID(out)
	return out, nil
}

// RelatedAnnotations answers from the annotation's owner shard (shared
// referents are intra-shard by routing).
func (s *Store) RelatedAnnotations(id uint64) ([]*core.Annotation, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).RelatedAnnotations(id)
}

// CorrelatedData answers from the annotation's owner shard.
func (s *Store) CorrelatedData(id uint64) ([]core.CorrelatedItem, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).CorrelatedData(id)
}

// DerivedAll merges the per-shard derived tables in source-ID order,
// preserving each source's fact order — the global DerivedEach order,
// since every source annotation lives on exactly one shard.
func (s *Store) DerivedAll() []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range s.Views() {
		out = append(out, v.DerivedAll()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// DerivedTargeting merges the provenance of one target node across
// shards: per-shard lists are (ascending source, canonical fact order)
// already, and sources are globally unique, so a stable source-order
// merge reproduces the unsharded order.
func (s *Store) DerivedTargeting(target agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	for _, v := range s.Views() {
		out = append(out, v.DerivedTargeting(target)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// DerivedFrom returns the facts derived from one source annotation
// (owner shard; empty if the annotation is unknown).
func (s *Store) DerivedFrom(src uint64) []core.DerivedFact {
	k, ok := s.ownerOfAnnotation(src)
	if !ok {
		return nil
	}
	return s.shardCore(k).View().DerivedFrom(src)
}

// DerivedOnto returns the facts derived onto an annotation. Sources that
// could target it share its routing domain, so the owner shard holds
// them all.
func (s *Store) DerivedOnto(id uint64) ([]core.DerivedFact, error) {
	k, ok := s.ownerOfAnnotation(id)
	if !ok {
		return nil, errNoSuchAnnotation(id)
	}
	return s.shardCore(k).View().DerivedOnto(id)
}

// DerivedSourceEpoch returns the owner shard's derived epoch for src.
func (s *Store) DerivedSourceEpoch(src uint64) uint64 {
	k, ok := s.ownerOfAnnotation(src)
	if !ok {
		return 0
	}
	return s.shardCore(k).View().DerivedSourceEpoch(src)
}

// Query executes one query against every shard and merges the results
// in ID order (annotations, referents) / shard order (subgraphs).
// Planner statistics sum across shards; Order and Strategies report
// shard 0's plan. The query is parsed once. Its match cap
// (query.Options.Cap: MaxResults or the query's own "limit N") bounds
// each shard's enumeration and then the merged result, so it holds
// across the deployment, but which matches survive can differ from the
// unsharded store.
func (s *Store) Query(ctx context.Context, src string, opts query.Options) (*query.Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	results := make([]*query.Result, s.NumShards())
	if err := s.eachShard(func(k int) (err error) {
		results[k], err = query.NewProcessor(s.shardCore(k)).ExecuteParsedCtx(ctx, q, opts)
		return err
	}); err != nil {
		return nil, err
	}
	out := &query.Result{
		Kind: results[0].Kind,
		Stats: query.Stats{
			Order:           results[0].Stats.Order,
			Strategies:      results[0].Stats.Strategies,
			CandidateCounts: map[string]int{},
			Costs:           map[string]float64{},
		},
	}
	for _, r := range results {
		out.Matches = append(out.Matches, r.Matches...)
		out.Annotations = append(out.Annotations, r.Annotations...)
		out.Referents = append(out.Referents, r.Referents...)
		out.Subgraphs = append(out.Subgraphs, r.Subgraphs...)
		out.Stats.Matches += r.Stats.Matches
		out.Stats.BindingsTried += r.Stats.BindingsTried
		for v, c := range r.Stats.CandidateCounts {
			out.Stats.CandidateCounts[v] += c
		}
		for v, c := range r.Stats.Costs {
			out.Stats.Costs[v] += c
		}
	}
	sortByID(out.Annotations)
	sort.Slice(out.Referents, func(i, j int) bool { return out.Referents[i].ID < out.Referents[j].ID })
	if limit := opts.Cap(q); limit > 0 {
		out.Matches = out.Matches[:min(len(out.Matches), limit)]
		out.Annotations = out.Annotations[:min(len(out.Annotations), limit)]
		out.Referents = out.Referents[:min(len(out.Referents), limit)]
		out.Subgraphs = out.Subgraphs[:min(len(out.Subgraphs), limit)]
		out.Stats.Matches = min(out.Stats.Matches, limit)
	}
	return out, nil
}

// Export merges the per-shard snapshots into one, ordered exactly as the
// unsharded exporter orders it: every section sorted by its primary key
// (each object is homed on one shard, so concatenation + sort is the
// global sorted order); ontologies and rules from shard 0; ID counters
// the per-shard maxima.
func (s *Store) Export() (*persist.Snapshot, error) {
	n := s.NumShards()
	snaps := make([]*persist.Snapshot, n)
	for k := 0; k < n; k++ {
		snap, err := persist.Export(s.shardCore(k))
		if err != nil {
			return nil, tag(k, err)
		}
		snaps[k] = snap
	}
	out := &persist.Snapshot{
		Version:    persist.Version,
		Ontologies: snaps[0].Ontologies,
		Rules:      snaps[0].Rules,
	}
	for _, snap := range snaps {
		out.Systems = append(out.Systems, snap.Systems...)
		out.Sequences = append(out.Sequences, snap.Sequences...)
		out.Alignments = append(out.Alignments, snap.Alignments...)
		out.Trees = append(out.Trees, snap.Trees...)
		out.Graphs = append(out.Graphs, snap.Graphs...)
		out.Images = append(out.Images, snap.Images...)
		out.RecordTables = append(out.RecordTables, snap.RecordTables...)
		out.Annotations = append(out.Annotations, snap.Annotations...)
		if snap.NextAnn > out.NextAnn {
			out.NextAnn = snap.NextAnn
		}
		if snap.NextRef > out.NextRef {
			out.NextRef = snap.NextRef
		}
	}
	sort.Slice(out.Systems, func(i, j int) bool { return out.Systems[i].Name < out.Systems[j].Name })
	sort.Slice(out.Sequences, func(i, j int) bool { return out.Sequences[i].ID < out.Sequences[j].ID })
	sort.Slice(out.Alignments, func(i, j int) bool { return out.Alignments[i].ID < out.Alignments[j].ID })
	sort.Slice(out.Trees, func(i, j int) bool { return out.Trees[i].ID < out.Trees[j].ID })
	sort.Slice(out.Graphs, func(i, j int) bool { return out.Graphs[i].ID < out.Graphs[j].ID })
	sort.Slice(out.Images, func(i, j int) bool { return out.Images[i].ID < out.Images[j].ID })
	sort.Slice(out.RecordTables, func(i, j int) bool { return out.RecordTables[i].Name < out.RecordTables[j].Name })
	sort.Slice(out.Annotations, func(i, j int) bool { return out.Annotations[i].ID < out.Annotations[j].ID })
	return out, nil
}

// Restore replaces the deployment's entire state with snap; it is the
// only way a snapshot enters a running store. A snapshot whose
// annotations or referents lack IDs (every v1 snapshot) is first loaded
// and exported unsharded, so IDs follow file order at any shard count.
// The snapshot is then partitioned by the routing keys live mutations
// use, every partition is loaded in parallel, and only once all have
// loaded are they installed: a core-pointer swap in memory, a checkpoint
// then swap when durable (durable.Store.Install).
//
// So a snapshot that fails to load changes no shard. A disk fault while
// one durable shard checkpoints leaves that shard's previous state in
// place, while shards that checkpointed keep the restored state; the
// error names the failed shard, and restoring again converges.
//
// Restore holds the inter-shard channel and every shard's writer latch,
// so a concurrent commit either completes before the swap (and is
// replaced) or waits and lands in the restored state.
func (s *Store) Restore(snap *persist.Snapshot) error {
	snap, err := withIDs(snap)
	if err != nil {
		return err
	}
	parts := s.partition(snap)
	s.gmu.Lock()
	defer s.gmu.Unlock()
	for k := range s.smu {
		s.smu[k].Lock()
		defer s.smu[k].Unlock()
	}
	s.gseq.Add(1)
	fresh := make([]*core.Store, s.NumShards())
	if err := s.eachShard(func(k int) (err error) {
		fresh[k], err = persist.LoadWith(parts[k], s.coreOptions(k))
		return tag(k, err)
	}); err != nil {
		return err
	}
	err = s.eachShard(func(k int) error {
		if s.durs != nil {
			return tag(k, s.durs[k].Install(fresh[k]))
		}
		s.cores[k].Store(fresh[k])
		return nil
	})
	// Even a partial install may have raised some shard's counters.
	s.advanceIDs()
	return err
}

// withIDs returns snap if it carries every annotation and referent ID,
// else (v1) its unsharded load re-exported, which assigns them in order.
func withIDs(snap *persist.Snapshot) (*persist.Snapshot, error) {
	for _, ad := range snap.Annotations {
		if ad.ID == 0 || slices.ContainsFunc(ad.Referents, func(rd persist.ReferentDump) bool { return rd.ID == 0 }) {
			cs, err := persist.Load(snap)
			if err != nil {
				return nil, err
			}
			return persist.Export(cs)
		}
	}
	return snap, nil
}

// partition splits a snapshot by routing key. Broadcast sections
// (ontologies, rules) and the ID counters go to every shard.
func (s *Store) partition(snap *persist.Snapshot) []*persist.Snapshot {
	n := s.NumShards()
	parts := make([]*persist.Snapshot, n)
	for k := range parts {
		parts[k] = &persist.Snapshot{
			Version:    snap.Version,
			Ontologies: snap.Ontologies,
			Rules:      snap.Rules,
			NextAnn:    snap.NextAnn,
			NextRef:    snap.NextRef,
		}
	}
	of := func(key string) *persist.Snapshot { return parts[s.router.ShardOfKey(key)] }
	for _, d := range snap.Systems {
		p := of(d.Name)
		p.Systems = append(p.Systems, d)
	}
	for _, d := range snap.Sequences {
		key := d.Domain
		if key == "" {
			key = d.ID
		}
		p := of(key)
		p.Sequences = append(p.Sequences, d)
	}
	for _, d := range snap.Alignments {
		p := of(d.ID)
		p.Alignments = append(p.Alignments, d)
	}
	for _, d := range snap.Trees {
		p := of(d.ID)
		p.Trees = append(p.Trees, d)
	}
	for _, d := range snap.Graphs {
		p := of(d.ID)
		p.Graphs = append(p.Graphs, d)
	}
	for _, d := range snap.Images {
		p := of(d.System)
		p.Images = append(p.Images, d)
	}
	for _, d := range snap.RecordTables {
		p := of(d.Name)
		p.RecordTables = append(p.RecordTables, d)
	}
	for _, d := range snap.Annotations {
		p := parts[s.routeAnnotationDump(d)]
		p.Annotations = append(p.Annotations, d)
	}
	return parts
}

// routeAnnotationDump mirrors routeBuilder for serialized annotations.
func (s *Store) routeAnnotationDump(d persist.AnnotationDump) int {
	for _, rd := range d.Referents {
		return s.router.ShardOfKey(routeKeyOfDump(rd))
	}
	if len(d.Terms) > 0 {
		return s.router.ShardOfKey(d.Terms[0].Ontology)
	}
	return 0
}

// routeKeyOfDump mirrors core.Referent.RouteKey for serialized marks.
func routeKeyOfDump(d persist.ReferentDump) string {
	if core.ReferentKind(d.Kind) == core.ObjectReferent {
		return d.ObjectID
	}
	if d.Domain != "" {
		return d.Domain
	}
	return d.ObjectID
}

// ShardHealth is one shard's durability health, tagged with its ID.
type ShardHealth struct {
	Shard int `json:"shard"`
	durable.Health
}

// Health reports every shard's degradation state (in-memory shards are
// always healthy).
func (s *Store) Health() []ShardHealth {
	out := make([]ShardHealth, s.NumShards())
	for k := range out {
		out[k].Shard = k
		if s.durs != nil {
			out[k].Health = s.durs[k].Health()
		} else {
			out[k].Health = durable.Health{State: durable.StateHealthy}
		}
	}
	return out
}

// DegradedShards lists the shards currently refusing writes.
func (s *Store) DegradedShards() []int {
	var out []int
	for _, h := range s.Health() {
		if h.State != durable.StateHealthy {
			out = append(out, h.Shard)
		}
	}
	return out
}

// Reopen recovers one degraded shard (no-op when healthy or in-memory).
func (s *Store) Reopen(k int) error {
	if s.durs == nil {
		return nil
	}
	_, err := s.durs[k].Reopen()
	if err != nil {
		return tag(k, err)
	}
	s.advanceIDs()
	return nil
}

// DurabilityStats returns the per-shard durability counters (nil for an
// in-memory store).
func (s *Store) DurabilityStats() []durable.Stats {
	if s.durs == nil {
		return nil
	}
	out := make([]durable.Stats, len(s.durs))
	for k, d := range s.durs {
		out[k] = d.Stats()
	}
	return out
}

func sortByID(out []*core.Annotation) {
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
}

func errNoSuchAnnotation(id uint64) error {
	return fmt.Errorf("%w: %d", core.ErrNoSuchAnnotation, id)
}

func errNoSuchReferent(id uint64) error {
	return fmt.Errorf("%w: %d", core.ErrNoSuchReferent, id)
}
