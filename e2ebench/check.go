package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// checker verifies every response against what the generator knows:
// status and shape always, planted ground truth for queries, and for
// searches the exact set of annotations that must (and may) match,
// given which commits were acknowledged and which deletes were sent
// while the search was in flight.
type checker struct {
	seed   *seedState
	shards int

	mu        sync.Mutex
	bodies    map[uint64]string        // every known annotation body
	ackAt     map[uint64]time.Duration // run commit -> acknowledged at
	delSentAt map[uint64]time.Duration
	delAckAt  map[uint64]time.Duration
	delFailed map[uint64]bool
	searches  []searchRec
}

type searchRec struct {
	op         int
	word       string
	send, done time.Duration
	ids        []uint64
}

func newChecker(seed *seedState, shards int) *checker {
	c := &checker{seed: seed, shards: shards, bodies: map[uint64]string{}, ackAt: map[uint64]time.Duration{},
		delSentAt: map[uint64]time.Duration{}, delAckAt: map[uint64]time.Duration{},
		delFailed: map[uint64]bool{}}
	for id, b := range seed.bodies {
		c.bodies[id] = b
	}
	return c
}

// annView and queryView decode the parts of the API's JSON the checks use.
type annView struct {
	ID        uint64    `json:"id"`
	Creator   string    `json:"creator"`
	Referents []uint64  `json:"referents"`
	Terms     []termRef `json:"terms"`
	XML       string    `json:"xml"`
}

type queryView struct {
	Matches     int       `json:"matches"`
	Annotations []annView `json:"annotations"`
	Referents   []string  `json:"referents"`
	Subgraphs   []struct {
		Nodes []string `json:"nodes"`
	} `json:"subgraphs"`
}

func (c *checker) deleteSent(id uint64, at time.Duration) {
	c.mu.Lock()
	c.delSentAt[id] = at
	c.mu.Unlock()
}

func wantStatus(got, want int, raw []byte) error {
	if got != want {
		msg := string(raw)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return fmt.Errorf("status %d, want %d: %s", got, want, msg)
	}
	return nil
}

// response checks one reply; for a commit it returns the new ID.
func (c *checker) response(i int, op Op, id uint64, status int, raw []byte, send, done time.Duration) (uint64, error) {
	switch op.Kind {
	case kCommit:
		if err := wantStatus(status, http.StatusCreated, raw); err != nil {
			return 0, err
		}
		var v annView
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, err
		}
		req := commitBody(op)
		if v.ID == 0 || v.Creator != req.Creator || len(v.Referents) == 0 || len(v.Terms) != len(req.Terms) {
			return 0, fmt.Errorf("commit echo mismatch: %s", truncate(raw))
		}
		c.mu.Lock()
		c.bodies[v.ID] = req.Body
		c.ackAt[v.ID] = done
		c.mu.Unlock()
		return v.ID, nil
	case kDelete:
		err := wantStatus(status, http.StatusNoContent, raw)
		c.mu.Lock()
		if err != nil {
			c.delFailed[id] = true
		} else {
			c.delAckAt[id] = done
		}
		c.mu.Unlock()
		return 0, err
	case kRuleAdd:
		return 0, wantStatus(status, http.StatusCreated, raw)
	case kRuleDel:
		return 0, wantStatus(status, http.StatusNoContent, raw)
	}
	if err := wantStatus(status, http.StatusOK, raw); err != nil {
		return 0, err
	}
	switch op.Kind {
	case kGet:
		var v annView
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, err
		}
		if v.ID != id || v.Creator != op.Creator {
			return 0, fmt.Errorf("annotation %d: got id %d creator %q, want %q", id, v.ID, v.Creator, op.Creator)
		}
	case kRelated, kCorrelated:
		var v []json.RawMessage
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Kind, err)
		}
	case kProvenance:
		var v struct {
			ID         uint64            `json:"id"`
			Derives    []json.RawMessage `json:"derives"`
			Provenance []json.RawMessage `json:"provenance"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, err
		}
		if v.ID != id || v.Derives == nil || v.Provenance == nil {
			return 0, fmt.Errorf("provenance %d: bad shape %s", id, truncate(raw))
		}
	case kSearch:
		var v []annView
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, err
		}
		rec := searchRec{op: i, word: op.Word, send: send, done: done}
		for _, a := range v {
			if !strings.Contains(a.XML, op.Word) {
				return 0, fmt.Errorf("search %q returned annotation %d without it", op.Word, a.ID)
			}
			rec.ids = append(rec.ids, a.ID)
		}
		c.mu.Lock()
		c.searches = append(c.searches, rec)
		c.mu.Unlock()
	case kQuery:
		var v queryView
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, err
		}
		return 0, c.query(op, v)
	}
	return 0, nil
}

// query checks the planted ground truth: F3 finds exactly the protease
// chains, Q1 exactly the TP53 findings; the provenance template returns
// referents of the requested domain only, at most its limit clause per
// shard. That is the sharded store's stated contract: each shard applies
// the query's own limit and only Options.MaxResults re-caps the merged
// result, so "limit 50" can return up to 50 per shard.
func (c *checker) query(op Op, v queryView) error {
	switch op.Tmpl {
	case tmplF3:
		got := map[uint64]bool{}
		for _, sg := range v.Subgraphs {
			for _, n := range sg.Nodes {
				if key, ok := strings.CutPrefix(n, "content:"); ok {
					if id, err := strconv.ParseUint(strings.SplitN(key, "/", 2)[0], 10, 64); err == nil {
						got[id] = true
					}
				}
			}
		}
		return sameIDs("F3 protease chains", keys(got), c.seed.protease)
	case tmplQ1:
		var got []uint64
		for _, a := range v.Annotations {
			got = append(got, a.ID)
		}
		return sameIDs("Q1 TP53 findings", got, c.seed.tp53)
	default:
		if len(v.Referents) > provLimit*c.shards || v.Matches < len(v.Referents) {
			return fmt.Errorf("provenance query: %d referents, %d matches", len(v.Referents), v.Matches)
		}
		for _, r := range v.Referents {
			if !strings.Contains(r, "/"+op.Word+" ") {
				return fmt.Errorf("provenance query for %s returned %q", op.Word, r)
			}
		}
	}
	return nil
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameIDs(what string, got, want []uint64) error {
	g := append([]uint64(nil), got...)
	w := append([]uint64(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if fmt.Sprint(g) != fmt.Sprint(w) {
		return fmt.Errorf("%s: got %v, want %v", what, g, w)
	}
	return nil
}

func truncate(raw []byte) string {
	if len(raw) > 200 {
		return string(raw[:200])
	}
	return string(raw)
}

// searches checks every recorded search once the run is over, when all
// commit bodies and delete times are known. An annotation must be in
// the result if its commit was acknowledged before the search was sent
// and no delete of it was sent before the answer arrived; it may be in
// the result only if it contains the word and its delete was not
// acknowledged before the search was sent. It returns the failed ops.
func (c *checker) checkSearches() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	byWord := map[string][]uint64{}
	for _, s := range c.searches {
		if _, ok := byWord[s.word]; ok {
			continue
		}
		var hits []uint64
		for id, b := range c.bodies {
			if strings.Contains(b, s.word) {
				hits = append(hits, id)
			}
		}
		byWord[s.word] = hits
	}
	bad := map[int]string{}
	for _, s := range c.searches {
		in := map[uint64]bool{}
		for _, id := range s.ids {
			in[id] = true
			b, known := c.bodies[id]
			if !known || !strings.Contains(b, s.word) {
				bad[s.op] = fmt.Sprintf("search %q returned unknown or non-matching %d", s.word, id)
			}
			if at, ok := c.delAckAt[id]; ok && at < s.send {
				bad[s.op] = fmt.Sprintf("search %q returned %d, deleted before it was sent", s.word, id)
			}
		}
		for _, id := range byWord[s.word] {
			if in[id] {
				continue
			}
			if at, ok := c.ackAt[id]; ok && at >= s.send {
				continue // committed concurrently
			}
			if at, ok := c.delSentAt[id]; ok && at <= s.done {
				continue // deleted concurrently or earlier
			}
			bad[s.op] = fmt.Sprintf("search %q missed annotation %d", s.word, id)
		}
	}
	return bad
}

// expectLive is the annotation set the store must hold once every op
// has finished: the seed plus acknowledged commits minus acknowledged
// deletes. Annotations whose delete failed are excluded from the check.
func (c *checker) expectLive() (live, gone map[uint64]bool, unsure map[uint64]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live, gone, unsure = map[uint64]bool{}, map[uint64]bool{}, map[uint64]bool{}
	for id := range c.seed.bodies {
		live[id] = true
	}
	for id := range c.ackAt {
		live[id] = true
	}
	for id := range c.delAckAt {
		delete(live, id)
		gone[id] = true
	}
	for id := range c.delFailed {
		delete(live, id)
		unsure[id] = true
	}
	return live, gone, unsure
}

// verifyStore lists every annotation of a (restarted) server and checks
// that exactly the acknowledged, undeleted ones are there.
func (c *checker) verifyStore(raw []byte) error {
	var anns []annView
	if err := json.Unmarshal(raw, &anns); err != nil {
		return fmt.Errorf("list annotations: %w", err)
	}
	live, gone, unsure := c.expectLive()
	have := map[uint64]bool{}
	for _, a := range anns {
		have[a.ID] = true
		if gone[a.ID] {
			return fmt.Errorf("deleted annotation %d is readable after restart", a.ID)
		}
		if !live[a.ID] && !unsure[a.ID] {
			return fmt.Errorf("unexpected annotation %d after restart", a.ID)
		}
	}
	for id := range live {
		if !have[id] {
			return fmt.Errorf("acknowledged annotation %d lost after restart", id)
		}
	}
	return nil
}
