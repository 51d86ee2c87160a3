package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one finished op as the load generator saw it.
type sample struct {
	op   int
	due  time.Duration // schedule offset from the run origin (open loop)
	send time.Duration // when the request left, from the run origin
	done time.Duration // when the response was fully read
	lag  time.Duration // generator lateness: send - max(due, worker free)
	ok   bool
	err  string
}

// runner drives an op stream against one base URL over at most conns
// keep-alive connections, recording every op and resolving deletes and
// lookups that name an earlier commit to its acknowledged ID.
type runner struct {
	base   string
	client *http.Client
	ops    []Op
	chk    *checker
	origin time.Time

	ids   []atomic.Uint64 // commit op -> acknowledged annotation ID (0 = failed)
	acked []chan struct{} // commit op -> closed once resolved
}

func newRunner(base string, conns int, ops []Op, chk *checker) *runner {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	r := &runner{
		base: base, ops: ops, chk: chk, origin: time.Now(),
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		ids:    make([]atomic.Uint64, len(ops)),
		acked:  make([]chan struct{}, len(ops)),
	}
	for i, op := range ops {
		if op.Kind == kCommit {
			r.acked[i] = make(chan struct{})
		}
	}
	return r
}

func (r *runner) close() { r.client.CloseIdleConnections() }

// now is the time since the run origin.
func (r *runner) now() time.Duration { return time.Since(r.origin) }

// openLoop runs ops [lo, hi) on their Poisson schedule, which starts at
// offset start from the run origin. Each op's latency is later taken from
// its due time, so a stall is charged to every request queued behind it.
func (r *runner) openLoop(ctx context.Context, lo, hi, conns int, start time.Duration) []sample {
	return r.loop(ctx, lo, hi, conns, func(i int) time.Duration {
		return start + time.Duration(r.ops[i].Due*float64(time.Second))
	})
}

// closedLoop runs ops [lo, hi) back to back on conns connections.
func (r *runner) closedLoop(ctx context.Context, lo, hi, conns int) []sample {
	return r.loop(ctx, lo, hi, conns, nil)
}

func (r *runner) loop(ctx context.Context, lo, hi, conns int, dueOf func(int) time.Duration) []sample {
	out := make([]sample, hi-lo)
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				s := sample{op: i}
				free := r.now()
				if dueOf != nil {
					s.due = dueOf(i)
					if wait := s.due - free; wait > 0 {
						time.Sleep(wait)
					}
				}
				s.send = r.now()
				if dueOf != nil {
					s.lag = s.send - max(s.due, free)
				} else {
					s.due = s.send
				}
				err := r.do(ctx, i, s.send)
				s.done = r.now()
				s.ok = err == nil
				if err != nil {
					s.err = fmt.Sprintf("op %d %s: %v", i, r.ops[i].Kind, err)
				}
				out[i-lo] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// target resolves an op's annotation ID, waiting for the commit it names.
func (r *runner) target(ctx context.Context, op Op) (uint64, error) {
	if op.Ref < 0 {
		return op.Target, nil
	}
	select {
	case <-r.acked[op.Ref]:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	id := r.ids[op.Ref].Load()
	if id == 0 {
		return 0, fmt.Errorf("target commit op %d failed", op.Ref)
	}
	return id, nil
}

// do sends op i, reads the whole response and checks it.
func (r *runner) do(ctx context.Context, i int, send time.Duration) (err error) {
	op := r.ops[i]
	if op.Kind == kCommit {
		defer close(r.acked[i])
	}
	var id uint64
	if op.Kind == kDelete || class(op.Kind) == "lookup" {
		if id, err = r.target(ctx, op); err != nil {
			return err
		}
	}
	if op.Kind == kDelete {
		r.chk.deleteSent(id, send)
	}
	method, path, body := requestOf(op, id)
	var rd io.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+path, rd)
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	done := r.now()
	newID, err := r.chk.response(i, op, id, resp.StatusCode, raw, send, done)
	if op.Kind == kCommit && err == nil {
		r.ids[i].Store(newID)
	}
	return err
}
