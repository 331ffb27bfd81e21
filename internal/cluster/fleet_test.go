package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/membership"
)

// TestJoinWhileDrainingGetsNoLeases pins the drain bit of the one fleet
// table: a member's listed status and its lease gate are the same state,
// whether the drain arrives with a first join or a re-join (a heartbeat). A
// worker that re-joins a restarted coordinator while its listener is
// closing must get no leases, or each one comes back as a dispatch
// failure charged to its shard's attempt budget.
func TestJoinWhileDrainingGetsNoLeases(t *testing.T) {
	c, err := newQuick(Config{Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	const id = "http://w1"
	check := func(step string, m membership.Member, err error, wantDraining bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		want := membership.StatusActive
		if wantDraining {
			want = membership.StatusDraining
		}
		if listed := c.Members(); m.Status != want || len(listed) != 1 || listed[0].Status != want {
			t.Errorf("%s: ack says %s, fleet lists %+v, want %s", step, m.Status, listed, want)
		}
		if _, open := c.core.Gate(0); open == wantDraining {
			t.Errorf("%s: gate open = %v, want %v", step, open, !wantDraining)
		}
	}
	drainingJoin := joinAs(id)
	drainingJoin.Draining = true
	m, err := c.Join(drainingJoin)
	check("draining join", m, err, true)
	m, err = c.Join(drainingJoin)
	check("draining heartbeat", m, err, true)
	m, err = c.Join(joinAs(id))
	check("active heartbeat", m, err, false)
	m, err = c.Join(drainingJoin)
	check("draining re-join of an active member", m, err, true)
}

// TestRejoinKeepsBackoff: a -workers founder that joins is revived in
// place through AddWorker and counted as one join, but a live member's
// re-join only refreshes its registration — the backoff its failures
// earned stays.
func TestRejoinKeepsBackoff(t *testing.T) {
	const founder = "http://founder"
	cfg := fastConfig(founder)
	cfg.Elastic, cfg.Clock = true, newFakeClock()
	c, err := newQuick(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failOnce := func() {
		t.Helper()
		l, ok := c.core.Acquire(0)
		if !ok {
			t.Fatal("no lease for the founder")
		}
		c.core.Fail(l, errors.New("connection reset"), time.Millisecond)
		if _, open := c.core.Gate(0); open {
			t.Fatal("gate open right after a failure; the fake clock never lets a backoff lapse")
		}
	}
	failOnce()
	if _, err := c.Join(joinAs(founder)); err != nil {
		t.Fatal(err)
	}
	if _, open := c.core.Gate(0); !open {
		t.Fatal("a founder's first join did not revive it")
	}
	failOnce()
	if _, err := c.Join(joinAs(founder)); err != nil {
		t.Fatal(err)
	}
	if _, open := c.core.Gate(0); open {
		t.Fatal("a live member's re-join reset its backoff")
	}
	if joins, _, _ := c.Counters(); joins != 1 || c.core.Workers() != 1 || len(c.Members()) != 1 {
		t.Fatalf("joins = %d, %d worker indexes, members %+v; want one of each", joins, c.core.Workers(), c.Members())
	}
}

// healthAnswer is how a scripted worker answers its /healthz probe.
type healthAnswer int

const (
	unreachable healthAnswer = iota
	healthy
	drainingFor30s
)

// healthAnswers is a RoundTripper standing in for the fleet's /healthz
// endpoints, keyed by worker URL; a worker with no entry is unreachable.
type healthAnswers map[string]healthAnswer

func (h healthAnswers) RoundTrip(req *http.Request) (*http.Response, error) {
	answer := h[req.URL.Scheme+"://"+req.URL.Host]
	if answer == unreachable {
		return nil, errors.New("connection refused")
	}
	status, header := "ok", http.Header{}
	if answer == drainingFor30s {
		status = "draining"
		header.Set("Retry-After", "30")
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     header,
		Body:       io.NopCloser(strings.NewReader(`{"status":"` + status + `"}`)),
		Request:    req,
	}, nil
}

// FuzzFleet drives random scripts of joins (active or draining), re-joins
// carrying a queue depth (active or draining), leaves, sweeps and clock
// advances over four worker IDs through one coordinator, with scripted
// /healthz answers: reachable "ok", reachable "draining" with
// Retry-After, and unreachable.
// After every step the member list is sorted and duplicate-free, the
// counters are consistent with it, and each member's gate is open exactly
// when it is listed active; after every sweep no member is left past its
// deadline, so no unreachable one survives.
func FuzzFleet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 16, 4, 16, 4, 1, 1, 2})
	f.Add([]byte{5, 0, 5, 1, 5, 2, 16, 16, 16, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		const ttl = 10 * time.Second
		clk := newFakeClock()
		health := healthAnswers{}
		cfg := fastConfig()
		cfg.Elastic, cfg.MemberTTL, cfg.Clock = true, ttl, clk
		cfg.Client = &http.Client{Transport: health}
		c, err := newQuick(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := []string{"http://w0", "http://w1", "http://w2", "http://w3"}

		for _, b := range script {
			op, id := b%8, ids[b/8%4]
			health[id] = healthAnswer(b / 32 % 3)
			switch op {
			case 0, 1:
				req := joinAs(id)
				req.Draining = op == 1
				if _, err := c.Join(req); err != nil {
					t.Fatalf("join %s: %v", id, err)
				}
			case 2, 3:
				req := joinAs(id)
				req.QueueDepth, req.Draining = int(b), op == 3
				if _, err := c.Join(req); err != nil {
					t.Fatalf("re-join %s: %v", id, err)
				}
			case 4:
				c.Leave(id)
			case 5:
				c.Sweep(context.Background())
				now := clk.Now()
				for _, w := range c.core.fleet.snapshot() {
					if w.overdue(now) {
						t.Fatalf("%s (answer %d) survived a sweep past its deadline", w.url, health[w.url])
					}
				}
			case 6:
				clk.Advance(time.Duration(b) * time.Second / 4)
			case 7:
				clk.Advance(ttl + time.Second)
			}

			members := c.Members()
			for j, m := range members {
				if j > 0 && members[j-1].ID >= m.ID {
					t.Fatalf("members not strictly sorted: %q then %q", members[j-1].ID, m.ID)
				}
				i, _, ok := c.core.fleet.member(m.ID)
				if !ok {
					t.Fatalf("listed member %s is not in the fleet", m.ID)
				}
				if _, open := c.core.Gate(i); open != (m.Status == membership.StatusActive) {
					t.Fatalf("%s listed %s with gate open = %v", m.ID, m.Status, open)
				}
			}
			joins, leaves, evictions := c.Counters()
			if int64(len(members)) > joins {
				t.Fatalf("%d members but only %d joins", len(members), joins)
			}
			if leaves+evictions > joins {
				t.Fatalf("departures %d+%d exceed joins %d", leaves, evictions, joins)
			}
		}
	})
}
