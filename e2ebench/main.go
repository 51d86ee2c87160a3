// Command e2ebench is Graphitti's end-to-end benchmark. It starts the
// real graphitti-server binary through its flags, drives one seeded
// workload over loopback HTTP, checks every answer, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object {"correct","attempted","failed","metrics"}; the process
// exits non-zero on any wrong answer.
//
//	e2ebench --workload ingest|explore|fanout --seed N --seconds S --trace 0|1
//
// --trace 0 runs the end-to-end measurement; --trace 1 replays the same
// op stream in-process through each layer's public entry point and
// reports per-layer numbers (see README.md). run.sh builds the server
// and this program and passes --server.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	server   string // graphitti-server binary
	work     string // scratch directory, removed at exit
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "ingest, explore or fanout")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds (sets the op count)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced per-layer run instead of the end-to-end run")
	flag.StringVar(&cfg.server, "server", ".bench_build/bin/graphitti-server", "graphitti-server binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for data dirs and snapshots")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	errs              []string
	all               *metrics // every metric, printed as the record
	record            map[string]any
}

func run(cfg config) error {
	sp, ok := specs[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want ingest, explore or fanout)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(cfg.work, sp.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var out *outcome
	if cfg.trace == 1 {
		out, err = runTraced(sp, cfg, work)
	} else {
		out, err = runE2E(sp, cfg, work)
	}
	if err != nil {
		return err
	}
	return report(cfg, sp, out)
}

// report prints the metric table, the full record, and the final line.
func report(cfg config, sp spec, out *outcome) error {
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%d: %d failed of %d attempted\n",
		sp.Name, cfg.seed, cfg.seconds, cfg.trace, out.failed, out.attempted)
	for _, name := range out.all.names {
		m := out.all.m[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("%-30s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	rec := out.record
	rec["fingerprint"] = fingerprint(cfg, sp)
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		rec["bench_rss_mb"] = rss
	}
	rec["metrics"] = out.all.m
	rec["attempted"], rec["failed"] = out.attempted, out.failed
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	want, err := gatedMetrics(benchDef, cfg.trace == 1)
	if err != nil {
		return err
	}
	final := map[string]metric{}
	for _, name := range want {
		m, ok := out.all.m[name]
		if !ok {
			return fmt.Errorf("metric %s not measured on %s", name, sp.Name)
		}
		final[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err = json.Marshal(map[string]any{
		"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed, "metrics": final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return nil
}

// benchDef is the benchmark definition, relative to the repository root
// the benchmark runs from. Its metric lists pick the last line's metrics.
const benchDef = "BENCHMARK.json"

// gatedMetrics lists the end_to_end (or per_layer) metric names of the
// benchmark definition.
func gatedMetrics(path string, perLayer bool) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := def.EndToEnd
	if perLayer {
		list = def.PerLayer
	}
	names := make([]string, 0, len(list))
	for _, m := range list {
		names = append(names, m.Name)
	}
	return names, nil
}

// flushPolicy is the server's default durability setting, which every
// workload runs under.
const flushPolicy = "fdatasync before every ack, group commit, compaction at the 8 MiB default"

// fingerprint identifies the machine and code a result came from.
// Wall-clock numbers from different fingerprints are not comparable;
// counts are.
func fingerprint(cfg config, sp spec) map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(l, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	commit := "unknown"
	if raw, err := os.ReadFile(filepath.Join(filepath.Dir(cfg.server), "commit")); err == nil {
		commit = strings.TrimSpace(string(raw))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpu,
		"go": runtime.Version(), "commit": commit, "fs": fsType(cfg.work),
		"flush": flushPolicy, "seed": cfg.seed, "workload": sp.Name, "shards": sp.Shards,
		"seconds": cfg.seconds, "trace": cfg.trace,
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// Each run starts the server from the seed snapshot at least minSetups
// times and until setupBudget has passed (at most maxSetups); setup_s is
// the median. Restarts after kill -9 follow the same rule for reopen_s.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// repeatStarts reports whether another start should be timed.
func repeatStarts(done int, spent time.Duration) bool {
	return done < minSetups || (spent < setupBudget && done < maxSetups)
}

// apiStats decodes the /api/stats fields the benchmark reads.
type apiStats struct {
	Annotations int
	Durability  *struct{ WAL walStats }
	Sharding    *struct {
		CrossShardCommits uint64 `json:"crossShardCommits"`
		Durability        []struct{ WAL walStats }
	} `json:"sharding"`
}

type walStats struct{ Records, Bytes, Flushes, MaxBatch uint64 }

// wal sums the WAL counters over every pipeline.
func (s apiStats) wal() walStats {
	var out walStats
	add := func(w walStats) {
		out.Records += w.Records
		out.Bytes += w.Bytes
		out.Flushes += w.Flushes
		out.MaxBatch = max(out.MaxBatch, w.MaxBatch)
	}
	if s.Durability != nil {
		add(s.Durability.WAL)
	}
	if s.Sharding != nil {
		for _, d := range s.Sharding.Durability {
			add(d.WAL)
		}
	}
	return out
}

func fetchStats(ctx context.Context, r *runner) (apiStats, error) {
	var st apiStats
	raw, err := getBody(ctx, r.client, r.base+"/api/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(raw, &st)
}

// runE2E is the end-to-end run: setup, open loop, closed loop, kill -9,
// reopen and verification against the real server binary.
func runE2E(sp spec, cfg config, work string) (*outcome, error) {
	ctx := context.Background()
	w, err := newWorld(routeShards)
	if err != nil {
		return nil, err
	}
	st, err := buildSeed(sp, w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("seed state: %w", err)
	}
	strm := makeStream(sp, w, st, cfg.seed, cfg.seconds)
	snapPath := filepath.Join(work, "seed.json")
	if err := os.WriteFile(snapPath, st.snap, 0o644); err != nil {
		return nil, err
	}
	st.snap = nil
	runtime.GC()
	bin, err := filepath.Abs(cfg.server)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(work, "server.log")

	// Set-up: exec until /readyz, from a fresh data directory each time.
	var setups []float64
	var srv *server
	dataDir := filepath.Join(work, "data")
	var spent time.Duration
	for {
		s, d, err := startServer(bin, logPath, dataDir, snapPath, sp.Shards)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spent += d
		if !repeatStarts(len(setups), spent) {
			srv = s
			break
		}
		s.kill()
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	killed := false
	defer func() {
		if !killed {
			srv.kill()
		}
	}()

	chk := newChecker(st, sp.Shards)
	r := newRunner("http://"+srv.addr, conns, strm.Ops, chk)
	defer r.close()
	st0, err := fetchStats(ctx, r)
	if err != nil {
		return nil, err
	}
	if st0.Annotations != st.anns {
		return nil, fmt.Errorf("server holds %d annotations after set-up, seed has %d", st0.Annotations, st.anns)
	}
	// The open loop runs as openSegments consecutive parts on the same
	// Poisson schedule. op_p50_ms and cpu_us_per_op are medians over the
	// parts, so a burst of outside load that hits one part does not move
	// them.
	cpuPrev, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	wall0 := time.Now()
	var openS []sample
	var segCPU []float64
	var segEnds []int
	for k := 0; k < openSegments; k++ {
		lo, hi := strm.Open*k/openSegments, strm.Open*(k+1)/openSegments
		start := r.now() + 20*time.Millisecond - time.Duration(strm.Ops[lo].Due*float64(time.Second))
		openS = append(openS, r.openLoop(ctx, lo, hi, conns, start)...)
		c, err := srv.cpuTicks()
		if err != nil {
			return nil, err
		}
		segCPU = append(segCPU, float64(c-cpuPrev)/clockTick*1e6/float64(max(hi-lo, 1)))
		segEnds = append(segEnds, hi)
		cpuPrev = c
	}
	openWall := time.Since(wall0)
	self1 := selfCPU()
	t0 := time.Now()
	closedS := r.closedLoop(ctx, strm.Open, len(strm.Ops), conns)
	closedWall := time.Since(t0)
	st1, err := fetchStats(ctx, r)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}

	out := &outcome{all: newMetrics(), record: map[string]any{}}
	// kill -9, then restart on the same directory: recovery time, and
	// every acknowledged write must be there and no deleted one.
	srv.kill()
	killed = true
	var reopens []float64
	spent = 0
	var listing []byte
	for {
		srv2, d, err := startServer(bin, logPath, dataDir, snapPath, sp.Shards)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		reopens = append(reopens, d.Seconds())
		spent += d
		if repeatStarts(len(reopens), spent) {
			srv2.kill()
			continue
		}
		listing, err = getBody(ctx, r.client, "http://"+srv2.addr+"/api/annotations")
		srv2.stop()
		if err != nil {
			return nil, fmt.Errorf("reopen listing: %w", err)
		}
		break
	}
	out.attempted = len(strm.Ops) + 1
	if err := chk.verifyStore(listing); err != nil {
		out.failed++
		out.errs = append(out.errs, "after reopen: "+err.Error())
	}

	// Failed ops, including searches that fail the deferred check.
	bad := chk.checkSearches()
	for _, phase := range [][]sample{openS, closedS} {
		for i := range phase {
			s := &phase[i]
			if msg, ok := bad[s.op]; ok && s.ok {
				s.ok, s.err = false, msg
			}
			if !s.ok {
				out.failed++
				if len(out.errs) < 20 {
					out.errs = append(out.errs, s.err)
				}
			}
		}
	}

	ms := out.all
	ms.set("setup_s", median(setups), "s", 0)
	byClass := map[string][]float64{}
	var lags, segP50, seg []float64
	for i, s := range openS {
		v := failedLatency
		if s.ok {
			v = float64(s.done-s.due) / 1e6
		}
		byClass[class(strm.Ops[s.op].Kind)] = append(byClass[class(strm.Ops[s.op].Kind)], v)
		lags = append(lags, float64(s.lag)/1e6)
		if seg = append(seg, v); s.op+1 == segEnds[len(segP50)] || i == len(openS)-1 {
			segP50 = append(segP50, clamp(median(seg)))
			seg = nil
		}
	}
	ms.set("op_p50_ms", median(segP50), "ms", len(openS))
	ms.latencies("commit", byClass[kCommit], true)
	ms.latencies("delete", byClass[kDelete], false)
	ms.latencies("query", byClass[kQuery], true)
	ms.latencies("search", byClass[kSearch], true)
	ms.latencies("lookup", byClass["lookup"], true)
	ms.set("ops_per_s", float64(len(closedS))/closedWall.Seconds(), "ops/s", 0)
	ms.set("reopen_s", median(reopens), "s", 0)
	ms.set("cpu_us_per_op", median(segCPU), "us", 0)
	ms.set("rss_mb", rss, "MB", 0)
	ms.set("disk_bytes_per_ann", float64(disk)/float64(max(st1.Annotations, 1)), "B", 0)

	// Validity and WAL counters over the run (the e2e side of the
	// per-layer table).
	sort.Float64s(lags)
	ms.set("gen.lag_p99_ms", quantile(lags, 0.99), "ms", len(lags))
	ms.set("client.cpu_frac", (self1-self0).Seconds()/(openWall.Seconds()*float64(runtime.NumCPU())), "frac", 0)
	w0, w1 := st0.wal(), st1.wal()
	if dr := w1.Records - w0.Records; dr > 0 {
		ms.set("wal.fsyncs_per_commit", float64(w1.Flushes-w0.Flushes)/float64(dr), "count", 0)
		ms.set("wal.max_batch", float64(w1.MaxBatch), "count", 0)
		ms.set("wal.bytes_per_commit", float64(w1.Bytes-w0.Bytes)/float64(dr), "B", 0)
	}
	out.record["setup_runs_s"], out.record["reopen_runs_s"] = setups, reopens
	out.record["op_p50_ms_parts"], out.record["cpu_us_per_op_parts"] = segP50, segCPU
	out.record["open_ops"], out.record["closed_ops"] = strm.Open, len(closedS)
	out.record["rate_per_s"] = sp.Rate
	out.record["conns"] = conns
	return out, nil
}

// conns is the connection count: one per CPU of the 2-core reference box.
const conns = 2

// openSegments is the number of parts the open loop runs in.
const openSegments = 3

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
