// Command graphitti-bench regenerates the experiment set listed under
// "Tests and benchmarks" in README.md and prints the measured rows as
// markdown tables. The same workloads back the testing.B benchmarks in
// bench_test.go; this harness exists so the tables can be reproduced
// with one command:
//
//	go run ./cmd/graphitti-bench [-quick]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"graphitti"
	"graphitti/internal/agraph"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/obs"
	"graphitti/internal/ontology"
	"graphitti/internal/query"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

var (
	quick       = flag.Bool("quick", false, "smaller sweeps for a fast pass")
	metricsDump = flag.String("metrics-dump", "",
		"run the durable mixed workload plus the paper queries, then write the metric registry as flat CSV to this file (skips the experiment suites)")
)

func main() {
	flag.Parse()
	if *metricsDump != "" {
		if err := runMetricsDump(*metricsDump); err != nil {
			fmt.Fprintln(os.Stderr, "graphitti-bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("# Graphitti experiment harness")
	fmt.Println()
	runF1()
	runF2()
	runF3()
	runQ1()
	runQ2()
	runO1()
	runO2()
	runO3()
	runA1()
	runA2()
	runA3()
	runA4()
	runA5()
	runA6()
	runA7()
}

// timeIt runs fn `iters` times and returns the mean duration.
func timeIt(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

func fluSizes() []int {
	if *quick {
		return []int{200, 1000}
	}
	return []int{200, 1000, 5000}
}

func flu(anns int) *workload.InfluenzaStudy {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = anns
	s, err := workload.Influenza(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func neuro(images int) *workload.NeuroStudy {
	cfg := workload.DefaultNeuro
	cfg.Images = images
	cfg.NoiseAnnotations = images * 5
	s, err := workload.Neuroscience(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func runF1() {
	fmt.Println("## F1 — Fig. 1 scenario: a-graph primitives vs store size")
	fmt.Println()
	fmt.Println("| annotations | graph nodes | graph edges | path | connect(3) |")
	fmt.Println("|---|---|---|---|---|")
	for _, n := range fluSizes() {
		study := flu(n)
		s := study.Store
		ids := study.AnnotationIDs
		st := s.Stats()
		path := timeIt(50, func() {
			_, _ = s.PathBetweenAnnotations(ids[0], ids[len(ids)/2])
		})
		conn := timeIt(20, func() {
			_, _ = s.ConnectAnnotations(ids[0], ids[len(ids)/3], ids[2*len(ids)/3])
		})
		fmt.Printf("| %d | %d | %d | %v | %v |\n", n, st.GraphNodes, st.GraphEdges, path, conn)
	}
	fmt.Println()
}

func runF2() {
	fmt.Println("## F2 — Fig. 2 workflow: mark+commit throughput per data type")
	fmt.Println()
	fmt.Println("| data type | mark+commit |")
	fmt.Println("|---|---|")
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 0
	cfg.ProteaseChains = 0
	study, err := workload.Influenza(cfg)
	if err != nil {
		panic(err)
	}
	s := study.Store
	i := 0
	row := func(name string, fn func() error) {
		d := timeIt(200, func() {
			if err := fn(); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %s | %v |\n", name, d)
	}
	row("sequence interval", func() error {
		i++
		m, err := s.MarkDomainInterval("segment1", graphitti.Span(int64(i%1500), int64(i%1500+30)))
		if err != nil {
			return err
		}
		_, err = s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(fmt.Sprintf("seq note %d", i)).Refer(m))
		return err
	})
	row("tree clade", func() error {
		i++
		m, err := s.MarkClade("H5N1-phylogeny", "duck", "chicken")
		if err != nil {
			return err
		}
		_, err = s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(fmt.Sprintf("clade note %d", i)).Refer(m))
		return err
	})
	row("interaction subgraph", func() error {
		i++
		m, err := s.MarkSubgraph("NS1-interactome", "NS1", "PKR")
		if err != nil {
			return err
		}
		_, err = s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(fmt.Sprintf("net note %d", i)).Refer(m))
		return err
	})
	row("alignment block", func() error {
		i++
		m, err := s.MarkAlignmentBlock("HA-alignment", []string{"NC_00000"},
			graphitti.Span(int64(i%40), int64(i%40+10)))
		if err != nil {
			return err
		}
		_, err = s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(fmt.Sprintf("block note %d", i)).Refer(m))
		return err
	})
	n := neuro(4)
	i = 0
	row("image region", func() error {
		i++
		x := float64(i % 900)
		m, err := n.Store.MarkImageRegion(n.ImageIDs[i%len(n.ImageIDs)],
			graphitti.Rect2D(x, x, x+20, x+20))
		if err != nil {
			return err
		}
		_, err = n.Store.Commit(n.Store.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(fmt.Sprintf("region note %d", i)).Refer(m))
		return err
	})
	fmt.Println()
}

func runF3() {
	fmt.Println("## F3 — Fig. 3 query tab: graph query + correlated data")
	fmt.Println()
	fmt.Println("| annotations | graph query | correlated view |")
	fmt.Println("|---|---|---|")
	q := query.MustParse(`
select graph
where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`)
	for _, n := range fluSizes() {
		study := flu(n)
		p := query.NewProcessor(study.Store)
		gq := timeIt(10, func() {
			if _, err := p.ExecuteParsed(q, query.DefaultOptions); err != nil {
				panic(err)
			}
		})
		ids := study.AnnotationIDs
		cd := timeIt(50, func() {
			if _, err := study.Store.CorrelatedData(ids[len(ids)/2]); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %d | %v | %v |\n", n, gq, cd)
	}
	fmt.Println()
}

func runQ1() {
	fmt.Println("## Q1 — intro query (protein.TP53 / Deep Cerebellar nuclei)")
	fmt.Println()
	fmt.Println("| images | qualifying | answers | latency |")
	fmt.Println("|---|---|---|---|")
	sizes := []int{12, 48, 96}
	if *quick {
		sizes = []int{12, 48}
	}
	for _, images := range sizes {
		study := neuro(images)
		var res *graphitti.TP53Result
		d := timeIt(10, func() {
			var err error
			res, err = graphitti.QueryTP53Images(study.Store, graphitti.TP53Options{})
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %d | %d | %d | %v |\n", images, len(res.QualifyingImages), len(res.Annotations), d)
	}
	fmt.Println()
}

func runQ2() {
	fmt.Println("## Q2 — query-tab query (4 consecutive disjoint protease intervals)")
	fmt.Println()
	fmt.Println("| annotations | chains found | latency |")
	fmt.Println("|---|---|---|")
	for _, n := range fluSizes() {
		study := flu(n)
		var chains []*graphitti.Chain
		d := timeIt(10, func() {
			var err error
			chains, err = graphitti.QueryConsecutiveKeyword(study.Store, graphitti.ConsecutiveOptions{})
			if err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %d | %d | %v |\n", n, len(chains), d)
	}
	fmt.Println()
}

func runO1() {
	fmt.Println("## O1 — SUB_X operators")
	fmt.Println()
	fmt.Println("| operator | time |")
	fmt.Println("|---|---|")
	a := interval.Interval{Lo: 0, Hi: 100}
	r := rtree.Rect2D(0, 0, 100, 100)
	j := int64(0)
	fmt.Printf("| interval ifOverlap | %v |\n", timeIt(1_000_000, func() {
		j++
		_ = a.Overlaps(interval.Interval{Lo: j % 200, Hi: j%200 + 50})
	}))
	fmt.Printf("| interval intersect | %v |\n", timeIt(1_000_000, func() {
		j++
		_, _ = a.Intersect(interval.Interval{Lo: j % 200, Hi: j%200 + 50})
	}))
	fmt.Printf("| rect ifOverlap | %v |\n", timeIt(1_000_000, func() {
		j++
		x := float64(j % 200)
		_ = r.Overlaps(rtree.Rect2D(x, x, x+50, x+50))
	}))
	var tr interval.Tree[string]
	for i := 0; i < 10_000; i++ {
		lo := int64(i * 10)
		if err := tr.Insert(interval.Interval{Lo: lo, Hi: lo + 8}, uint64(i), "x"); err != nil {
			panic(err)
		}
	}
	fmt.Printf("| next (10k-entry tree) | %v |\n", timeIt(200_000, func() {
		j++
		lo := (j * 97) % 99_000
		_, _ = tr.Next(interval.Interval{Lo: lo, Hi: lo + 5})
	}))
	fmt.Println()
}

func runO2() {
	fmt.Println("## O2 — ontology operators (layered DAGs)")
	fmt.Println()
	fmt.Println("| terms | CI | CmRI | SubTree | SubTreeDiff | mCmRI |")
	fmt.Println("|---|---|---|---|---|---|")
	shapes := []struct{ depth, fanout int }{{4, 4}, {6, 4}}
	for _, sh := range shapes {
		o := workload.LayeredOntology("bench", sh.depth, sh.fanout, 1)
		ci, err := o.CI("root")
		if err != nil {
			panic(err)
		}
		y := ci[0]
		cs := []string{"root", ci[len(ci)/2]}
		fmt.Printf("| %d | %v | %v | %v | %v | %v |\n", o.Len(),
			timeIt(50, func() { _, _ = o.CI("root") }),
			timeIt(50, func() { _, _ = o.CmRI("root", []string{ontology.IsA, ontology.PartOf}) }),
			timeIt(50, func() { _, _ = o.SubTree("root", []string{ontology.IsA}) }),
			timeIt(50, func() { _, _ = o.SubTreeDiff("root", y, []string{ontology.IsA}) }),
			timeIt(50, func() { _, _ = o.MCmRI(cs, ontology.InstanceRelations) }),
		)
	}
	fmt.Println()
}

func benchGraph(stars, size int) (*agraph.Graph, []agraph.NodeRef) {
	g := agraph.New()
	hub := agraph.Object("hub", "0")
	var terms []agraph.NodeRef
	for s := 0; s < stars; s++ {
		c := agraph.ContentRoot(uint64(s))
		terms = append(terms, c)
		for i := 0; i < size; i++ {
			r := agraph.Referent(uint64(s*size + i))
			g.AddEdge(c, r, agraph.LabelAnnotates)
			if i == 0 {
				g.AddEdge(r, hub, agraph.LabelMarks)
			}
		}
	}
	return g, terms
}

func runO3() {
	fmt.Println("## O3 — a-graph primitives vs graph size")
	fmt.Println()
	fmt.Println("| nodes | path | connect(4) |")
	fmt.Println("|---|---|---|")
	sizes := []int{100, 1000, 10_000}
	if *quick {
		sizes = []int{100, 1000}
	}
	for _, size := range sizes {
		g, terms := benchGraph(6, size)
		fmt.Printf("| %d | %v | %v |\n", g.NodeCount(),
			timeIt(20, func() { _, _ = g.FindPath(terms[0], terms[1]) }),
			timeIt(10, func() { _, _ = g.Connect(terms[0], terms[1], terms[2], terms[3]) }),
		)
	}
	fmt.Println()
}

func runA1() {
	fmt.Println("## A1 — index consolidation (one tree per chromosome vs per sequence)")
	fmt.Println()
	const (
		domains, seqsPerDom, marksPerSeq = 8, 16, 64
		domainLength                     = 100_000
	)
	rng := rand.New(rand.NewSource(9))
	consolidated := map[string]*interval.Tree[string]{}
	fragmented := map[string]*interval.Tree[string]{}
	perDomainSeqs := map[string][]string{}
	id := uint64(0)
	for d := 0; d < domains; d++ {
		dom := fmt.Sprintf("chr%d", d)
		for q := 0; q < seqsPerDom; q++ {
			seqID := fmt.Sprintf("%s-seq%d", dom, q)
			perDomainSeqs[dom] = append(perDomainSeqs[dom], seqID)
			for m := 0; m < marksPerSeq; m++ {
				lo := rng.Int63n(domainLength - 200)
				iv := interval.Interval{Lo: lo, Hi: lo + 20 + rng.Int63n(180)}
				ct := consolidated[dom]
				if ct == nil {
					ct = &interval.Tree[string]{}
					consolidated[dom] = ct
				}
				ft := fragmented[seqID]
				if ft == nil {
					ft = &interval.Tree[string]{}
					fragmented[seqID] = ft
				}
				if err := ct.Insert(iv, id, seqID); err != nil {
					panic(err)
				}
				if err := ft.Insert(iv, id, seqID); err != nil {
					panic(err)
				}
				id++
			}
		}
	}
	j := 0
	cons := timeIt(2000, func() {
		j++
		dom := fmt.Sprintf("chr%d", j%domains)
		lo := int64((j * 911) % (domainLength - 500))
		consolidated[dom].CountOverlapping(interval.Interval{Lo: lo, Hi: lo + 500})
	})
	frag := timeIt(2000, func() {
		j++
		dom := fmt.Sprintf("chr%d", j%domains)
		lo := int64((j * 911) % (domainLength - 500))
		q := interval.Interval{Lo: lo, Hi: lo + 500}
		for _, seqID := range perDomainSeqs[dom] {
			fragmented[seqID].CountOverlapping(q)
		}
	})
	fmt.Println("| design | index structures | overlap query |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| one tree per chromosome (paper) | %d | %v |\n", len(consolidated), cons)
	fmt.Printf("| one tree per annotated sequence | %d | %v |\n", len(fragmented), frag)
	fmt.Println()
}

func runA2() {
	fmt.Println("## A2 — interval tree vs naive scan")
	fmt.Println()
	fmt.Println("| N | tree | scan |")
	fmt.Println("|---|---|---|")
	sizes := []int{100, 1000, 10_000, 100_000}
	if *quick {
		sizes = []int{100, 1000, 10_000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(3))
		var tr interval.Tree[int]
		var sc interval.Scan[int]
		for i := 0; i < n; i++ {
			lo := rng.Int63n(1_000_000)
			iv := interval.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(500)}
			if err := tr.Insert(iv, uint64(i), i); err != nil {
				panic(err)
			}
			if err := sc.Insert(iv, uint64(i), i); err != nil {
				panic(err)
			}
		}
		j := 0
		tt := timeIt(2000, func() {
			j++
			lo := int64((j * 7919) % 999_000)
			tr.CountOverlapping(interval.Interval{Lo: lo, Hi: lo + 300})
		})
		ts := timeIt(200, func() {
			j++
			lo := int64((j * 7919) % 999_000)
			sc.CountOverlapping(interval.Interval{Lo: lo, Hi: lo + 300})
		})
		fmt.Printf("| %d | %v | %v |\n", n, tt, ts)
	}
	fmt.Println()
}

func runA3() {
	fmt.Println("## A3 — R-tree vs naive scan")
	fmt.Println()
	fmt.Println("| N | R-tree | scan |")
	fmt.Println("|---|---|---|")
	sizes := []int{100, 1000, 10_000, 50_000}
	if *quick {
		sizes = []int{100, 1000, 10_000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(5))
		tr, err := rtree.NewTree[int](2)
		if err != nil {
			panic(err)
		}
		sc, err := rtree.NewScan[int](2)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*10_000, rng.Float64()*10_000
			r := rtree.Rect2D(x, y, x+1+rng.Float64()*40, y+1+rng.Float64()*40)
			if err := tr.Insert(r, uint64(i), i); err != nil {
				panic(err)
			}
			if err := sc.Insert(r, uint64(i), i); err != nil {
				panic(err)
			}
		}
		j := 0
		tt := timeIt(2000, func() {
			j++
			x := float64((j * 7919) % 9900)
			tr.Count(rtree.Rect2D(x, x, x+100, x+100))
		})
		ts := timeIt(200, func() {
			j++
			x := float64((j * 7919) % 9900)
			sc.Count(rtree.Rect2D(x, x, x+100, x+100))
		})
		fmt.Printf("| %d | %v | %v |\n", n, tt, ts)
	}
	fmt.Println()
}

func runA4() {
	fmt.Println("## A4 — connect() strategies")
	fmt.Println()
	fmt.Println("| nodes | pairwise BFS | expanding ring |")
	fmt.Println("|---|---|---|")
	for _, size := range []int{200, 2000} {
		g, terms := benchGraph(8, size)
		pb := timeIt(20, func() {
			if _, err := g.ConnectWithStrategy(agraph.PairwiseBFS, terms...); err != nil {
				panic(err)
			}
		})
		er := timeIt(20, func() {
			if _, err := g.ConnectWithStrategy(agraph.ExpandingRing, terms...); err != nil {
				panic(err)
			}
		})
		fmt.Printf("| %d | %v | %v |\n", g.NodeCount(), pb, er)
	}
	fmt.Println()
}

func runA5() {
	fmt.Println("## A5 — planner sub-query ordering")
	fmt.Println()
	fmt.Println("| annotations | order | bindings tried | latency |")
	fmt.Println("|---|---|---|---|")
	q := query.MustParse(`
select contents
where {
  ?a isa annotation .
  ?r isa referent ; kind interval ; domain "segment1" ; overlaps [0, 120) .
  ?a annotates ?r .
}`)
	for _, n := range fluSizes() {
		study := flu(n)
		p := query.NewProcessor(study.Store)
		for _, ordered := range []bool{true, false} {
			var tried int
			d := timeIt(10, func() {
				res, err := p.ExecuteParsed(q, query.Options{OrderBySelectivity: ordered})
				if err != nil {
					panic(err)
				}
				tried = res.Stats.BindingsTried
			})
			name := "selectivity"
			if !ordered {
				name = "naive"
			}
			fmt.Printf("| %d | %s | %d | %v |\n", n, name, tried, d)
		}
	}
	fmt.Println()
}

func runA6() {
	fmt.Println("## A6 — content keyword index vs document scan")
	fmt.Println()
	fmt.Println("| annotations | indexed | scan |")
	fmt.Println("|---|---|---|")
	for _, n := range fluSizes() {
		study := flu(n)
		ti := timeIt(200, func() {
			if got := study.Store.SearchKeyword("protease", true); len(got) == 0 {
				panic("no hits")
			}
		})
		ts := timeIt(5, func() {
			if got := study.Store.SearchKeyword("protease", false); len(got) == 0 {
				panic("no hits")
			}
		})
		fmt.Printf("| %d | %v | %v |\n", n, ti, ts)
	}
	fmt.Println()
}

func runA7() {
	fmt.Println("## A7 — STR bulk load vs incremental R-tree construction")
	fmt.Println()
	fmt.Println("| N | build incremental | build STR | query incremental | query STR |")
	fmt.Println("|---|---|---|---|---|")
	sizes := []int{10_000, 50_000}
	if *quick {
		sizes = []int{10_000}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(11))
		entries := make([]rtree.Entry[int], n)
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*10_000, rng.Float64()*10_000
			entries[i] = rtree.Entry[int]{
				Rect: rtree.Rect2D(x, y, x+1+rng.Float64()*30, y+1+rng.Float64()*30),
				ID:   uint64(i), Value: i,
			}
		}
		buildInc := timeIt(3, func() {
			tr, _ := rtree.NewTree[int](2)
			for _, e := range entries {
				if err := tr.Insert(e.Rect, e.ID, e.Value); err != nil {
					panic(err)
				}
			}
		})
		buildStr := timeIt(3, func() {
			if _, err := rtree.BulkLoad(2, entries); err != nil {
				panic(err)
			}
		})
		inc, _ := rtree.NewTree[int](2)
		for _, e := range entries {
			_ = inc.Insert(e.Rect, e.ID, e.Value)
		}
		bulk, err := rtree.BulkLoad(2, entries)
		if err != nil {
			panic(err)
		}
		j := 0
		qInc := timeIt(2000, func() {
			j++
			x := float64((j * 7919) % 9900)
			inc.Count(rtree.Rect2D(x, x, x+80, x+80))
		})
		qStr := timeIt(2000, func() {
			j++
			x := float64((j * 7919) % 9900)
			bulk.Count(rtree.Rect2D(x, x, x+80, x+80))
		})
		fmt.Printf("| %d | %v | %v | %v | %v |\n", n, buildInc, buildStr, qInc, qStr)
	}
	fmt.Println()
}

// runMetricsDump exercises every instrumented layer — the durable mixed
// recovery stream (WAL, group commit, writer, propagation) followed by
// the paper's Q1 query and a content search — then flattens the process
// metric registry to CSV at path. scripts/bench.sh turns selected rows
// (commit latency quantiles, flush batching) into BENCH_*.json entries.
func runMetricsDump(path string) error {
	dir, err := os.MkdirTemp("", "graphitti-bench-metrics-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	ops := workload.RecoveryScenario(workload.DefaultRecovery)
	for _, op := range ops {
		if err := op.Apply(d); err != nil {
			return fmt.Errorf("%s: %w", op.Name, err)
		}
	}
	q := query.MustParse(`
		select graph
		where {
		  ?a isa annotation ; contains "protein.TP53" .
		  ?r isa referent ; kind region .
		  ?a annotates ?r .
		}
	`)
	p := query.NewProcessor(d.Core())
	for i := 0; i < 20; i++ {
		if _, err := p.ExecuteParsed(q, query.DefaultOptions); err != nil {
			return err
		}
		if _, err := d.Core().View().SearchContents("TP53"); err != nil {
			return err
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.Default.WriteCSV(f)
}
