package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/shard"
	"graphitti/internal/workload"
)

// TestGracefulShutdownClosesStore runs the real server loop against a
// durable directory, writes through the API, then cancels the context —
// the SIGINT/SIGTERM path — and checks the drain exits cleanly and the
// store was flushed and closed: a fresh Open replays the write.
func TestGracefulShutdownClosesStore(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan net.Addr, 1)
	cfg := serverConfig{
		addr:            "127.0.0.1:0",
		study:           "", // empty durable store, no demo seed
		dataDir:         dir,
		shutdownTimeout: 5 * time.Second,
		onListen:        func(a net.Addr) { addrCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, cfg, logger) }()

	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-errc:
		t.Fatalf("run exited before listening: %v", err)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d", resp.StatusCode)
	}
	// One durable op through the API; it must survive the shutdown.
	resp, err = http.Post(base+"/api/rules", "application/json",
		bytes.NewReader([]byte(`{"id":"ov","edge":"overlap","domain":"atlas"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add rule: %d", resp.StatusCode)
	}

	cancel() // the signal
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain within 10s")
	}

	sh, err := shard.Open(dir, 0, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after shutdown: %v", err)
	}
	defer sh.Close()
	if st := sh.DurabilityStats(); sh.NumShards() != 1 || st[0].Seq != 1 || st[0].TornBytes != 0 {
		t.Fatalf("store not cleanly closed: %+v", st)
	}
}

// TestBuildHandlerSeed pins how a fresh store is seeded. A -snapshot
// file serves exactly the file's own unsharded export at any shard
// count, in memory or durable, and a directory that holds state ignores
// a later seed. A seed that fails (unknown study, missing file,
// malformed JSON, unknown format version) is an error that leaves the
// directory fresh, so the next start seeds normally.
func TestBuildHandlerSeed(t *testing.T) {
	tmp := t.TempDir()
	writeFile := func(name, body string) string {
		t.Helper()
		path := filepath.Join(tmp, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// seedFile writes a snapshot of a workload spread over several
	// routing domains and returns its path and its unsharded export.
	seedFile := func(name string, seed int64) (path, want string) {
		t.Helper()
		cs := core.NewStore()
		ops := workload.ShardedScenario(workload.RecoveryConfig{Seed: seed, Images: 4, Ops: 80}, 4)
		if err := workload.ApplyOps(workload.AsSink(cs), ops); err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := persist.Write(cs, &file); err != nil {
			t.Fatal(err)
		}
		path = writeFile(name, file.String())
		loaded, err := persist.Read(&file)
		if err != nil {
			t.Fatal(err)
		}
		var export bytes.Buffer
		if err := persist.Write(loaded, &export); err != nil {
			t.Fatal(err)
		}
		return path, export.String()
	}
	first, want := seedFile("first.json", 1)
	second, _ := seedFile("second.json", 2)
	serve := func(t *testing.T, cfg serverConfig) string {
		t.Helper()
		h, sh, _, err := buildHandler(cfg)
		if err != nil {
			t.Fatalf("buildHandler: %v", err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/snapshot", nil))
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /api/snapshot: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	for _, tc := range []struct {
		name    string
		durable bool
		shards  int
	}{
		{"memory", false, 0},
		{"durable/shards=0", true, 0},
		{"durable/shards=2", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := serverConfig{snapshot: first, shards: tc.shards}
			if tc.durable {
				cfg.dataDir = t.TempDir()
			}
			if got := serve(t, cfg); got != want {
				t.Fatal("served snapshot differs from the seed file's unsharded export")
			}
			if !tc.durable {
				return
			}
			// A second start with another seed: the directory wins.
			cfg.snapshot = second
			if got := serve(t, cfg); got != want {
				t.Fatal("a restart with a different -snapshot replaced the first seed")
			}
		})
	}

	for _, tc := range []struct {
		name string
		cfg  serverConfig
	}{
		{"unknown-study", serverConfig{study: "no-such-study"}},
		{"missing-file", serverConfig{snapshot: filepath.Join(tmp, "missing.json")}},
		{"malformed-json", serverConfig{snapshot: writeFile("malformed.json", `{"version": 2, "annotations": [`)}},
		{"version-99", serverConfig{snapshot: writeFile("v99.json", `{"version": 99}`)}},
	} {
		t.Run("bad/"+tc.name, func(t *testing.T) {
			if _, _, _, err := buildHandler(tc.cfg); err == nil {
				t.Fatal("in-memory start accepted the seed")
			}
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.dataDir, cfg.shards = dir, 2
			if _, _, _, err := buildHandler(cfg); err == nil {
				t.Fatal("durable start accepted the seed")
			}
			if got := serve(t, serverConfig{dataDir: dir, snapshot: first}); got != want {
				t.Fatal("a failed seed left the directory unable to take a valid one")
			}
		})
	}
}

// TestShardedDirSurvivesDefaultFlags pins the restart contract for a
// sharded data directory: rerunning the server with -shards left at its
// default (0) must adopt the count SHARDS.json records and serve the
// shard data. An explicit mismatching -shards must refuse outright.
func TestShardedDirSurvivesDefaultFlags(t *testing.T) {
	dir := t.TempDir()
	sh, err := shard.Open(dir, 2, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.AddRule(prop.Rule{ID: "ov", Edge: "overlap", Domain: "atlas"}); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}

	// The CLI default: -shards 0.
	_, s2, _, err := buildHandler(serverConfig{dataDir: dir})
	if err != nil {
		t.Fatalf("restart with default flags: %v", err)
	}
	if got := s2.NumShards(); got != 2 {
		t.Fatalf("adopted %d shards, want the directory's 2", got)
	}
	if got := len(s2.Rules()); got != 1 {
		t.Fatalf("recovered %d rules, want 1", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// An explicit -shards 1 over a 2-shard directory is a mismatch: the
	// open must refuse with shard.Open's count error, never fork.
	if _, _, _, err := buildHandler(serverConfig{dataDir: dir, shards: 1}); err == nil {
		t.Fatal("explicit -shards 1 over a 2-shard directory was accepted")
	}

	// A directory whose manifest was lost must refuse too, instead of
	// re-pinning a guessed count over the shard data.
	if err := os.Remove(filepath.Join(dir, "SHARDS.json")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildHandler(serverConfig{dataDir: dir}); err == nil {
		t.Fatal("manifest-less shard directory re-initialised")
	}
}

// TestServerAdoptsLegacyDataDir: a data directory written by the
// unsharded durable store serves every acknowledged record with -shards
// unset or 1, and a restart opens it as an ordinary one-shard directory.
func TestServerAdoptsLegacyDataDir(t *testing.T) {
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			d, err := durable.Open(dir, durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ops := workload.RecoveryScenario(workload.RecoveryConfig{Seed: 5, Images: 4, Ops: 60})
			if err := workload.ApplyOps(d, ops); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := persist.Write(d.Core(), &want); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// The adopting start, then a restart with the default flag.
			// The -study seed must not touch a directory holding data.
			for _, restart := range []int{shards, 0} {
				h, sh, _, err := buildHandler(serverConfig{dataDir: dir, shards: restart, study: "influenza", anns: 5})
				if err != nil {
					t.Fatalf("-shards %d: %v", restart, err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/snapshot", nil))
				if err := sh.Close(); err != nil {
					t.Fatal(err)
				}
				if sh.NumShards() != 1 {
					t.Fatalf("-shards %d: served %d shards, want 1", restart, sh.NumShards())
				}
				if rec.Body.String() != want.String() {
					t.Fatalf("-shards %d: served snapshot differs from the legacy store's", restart)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "shard-0", "graphitti.wal")); err != nil {
				t.Fatalf("adopted WAL not under shard-0/: %v", err)
			}
		})
	}
}
