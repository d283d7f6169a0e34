package cpu

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// Reference-model test for the wakeup/select index. The window scan that
// the core and the helper-thread engines ran before IssueQueue existed —
// every cycle, walk the window from its oldest unissued entry, count each
// unissued entry against IQScanLimit, re-read every producer, issue what is
// ready — is kept here as the reference. Both models drive identical random
// windows (dependence graphs, latencies, lane budgets, scheduler reaches
// below the window size, entries that wait on older store-like entries,
// squashes in the middle of select, ring growth, and jumps of the clock over
// idle spans as the event-driven clock makes) and must issue the same
// entries in the same order with the same completion cycles.

// refEntry is one window entry of the random model.
type refEntry struct {
	lane   int    // 0 simple, 1 memory, 2 complex
	lat    uint64 // issue-to-completion latency (>= 1)
	srcs   [MaxSrcs]uint64
	store  bool   // wait entries wait for it to complete
	wait   bool   // must not issue before every older store has completed
	squash uint64 // when it issues, squash the window from ord+squash (0: never)
	issued bool
	doneAt uint64
}

// refShape is one random-window configuration.
type refShape struct {
	name    string
	rob     int // window capacity
	iq      int // unissued entries allowed at insert (0: no cap, the helper-engine shape)
	limit   int // scheduler reach (IQScanLimit)
	fetch   int // max inserts per cycle
	maxLat  int
	squashP float64 // share of store-like entries that squash younger entries
}

var refShapes = []refShape{
	{name: "core", rob: 632, iq: 128, limit: 128, fetch: 8, maxLat: 120},
	{name: "rob1024-iq207", rob: 1024, iq: 207, limit: 128, fetch: 8, maxLat: 300},
	{name: "engine", rob: 316, limit: 128, fetch: 4, maxLat: 400, squashP: 0.05},
	{name: "engine-inner", rob: 237, limit: 128, fetch: 3, maxLat: 40, squashP: 0.2},
	{name: "short-reach", rob: 200, limit: 7, fetch: 6, maxLat: 10, squashP: 0.1},
	{name: "tiny", rob: 40, iq: 24, limit: 3, fetch: 2, maxLat: 4, squashP: 0.3},
}

// refIssue is one issue event.
type refIssue struct {
	cycle, ord, doneAt uint64
}

// refModel is one issue-stage implementation over a refWindow.
type refModel interface {
	issue(now uint64, lanes *[3]int)
	unissued() int
	added(ord uint64) // called after the entry at ord entered the window
}

// refWindow is the state both models share in kind: the entries, the
// window bounds, the issue log, and the random stream that decides
// everything except issue.
type refWindow struct {
	shape      refShape
	rng        *rand.Rand
	ents       []refEntry
	head, tail uint64
	log        []refIssue
	squashes   int
}

func newRefWindow(shape refShape, seed uint64) *refWindow {
	return &refWindow{
		shape: shape,
		rng:   rand.New(rand.NewPCG(seed, uint64(len(shape.name)))),
		ents:  make([]refEntry, 2048),
	}
}

func (w *refWindow) at(ord uint64) *refEntry { return &w.ents[ord&uint64(len(w.ents)-1)] }

// cycle runs one cycle: retire, issue with a random lane budget, insert.
func (w *refWindow) cycle(m refModel, now uint64) {
	for n := 0; n < 8 && w.head < w.tail; n++ {
		if e := w.at(w.head); !e.issued || e.doneAt > now {
			break
		}
		w.head++
	}
	lanes := [3]int{w.rng.IntN(5), w.rng.IntN(3), w.rng.IntN(3)}
	m.issue(now, &lanes)
	for i, n := 0, w.rng.IntN(w.shape.fetch+1); i < n; i++ {
		if w.tail-w.head >= uint64(w.shape.rob) || (w.shape.iq > 0 && m.unissued() >= w.shape.iq) {
			break
		}
		*w.at(w.tail) = w.newEntry()
		w.tail++
		m.added(w.tail - 1)
	}
}

func (w *refWindow) newEntry() refEntry {
	e := refEntry{lane: w.rng.IntN(3), srcs: [MaxSrcs]uint64{NoOrd, NoOrd, NoOrd}}
	switch r := w.rng.IntN(10); {
	case r < 6:
		e.lat = 1 + uint64(w.rng.IntN(4))
	case r < 9:
		e.lat = 1 + uint64(w.rng.IntN(w.shape.maxLat))
	default:
		e.lat = uint64(w.shape.maxLat)
	}
	if live := int(w.tail - w.head); live > 0 {
		for k := range e.srcs {
			if w.rng.IntN(3) == 0 {
				continue
			}
			// Mostly recent producers (dependence chains), some far ones;
			// two sources may name the same producer.
			back := w.rng.IntN(min(live, 12))
			if w.rng.IntN(4) == 0 {
				back = w.rng.IntN(live)
			}
			e.srcs[k] = w.tail - 1 - uint64(back)
		}
	}
	if e.lane == 1 {
		e.store = w.rng.IntN(4) == 0
		e.wait = !e.store && w.rng.IntN(3) == 0
		if e.store {
			e.lat = 1 // a store completes the cycle after it issues
			if w.rng.Float64() < w.shape.squashP {
				e.squash = 1 + uint64(w.rng.IntN(32))
			}
		}
	}
	return e
}

// tryIssue applies the owner's side of issuing a selected entry: memory
// ordering (a wait entry behind an incomplete older store stays put and
// takes no lane), lane arbitration, then the completion cycle. It reports
// whether the entry issued and, if its issue squashes younger entries, the
// squash point.
func (w *refWindow) tryIssue(ord, now uint64, lanes *[3]int) (issued bool, squashFrom uint64) {
	e := w.at(ord)
	if e.wait {
		for o := w.head; o < ord; o++ {
			if s := w.at(o); s.store && (!s.issued || s.doneAt > now) {
				return false, 0
			}
		}
	}
	if lanes[e.lane] == 0 {
		return false, 0
	}
	lanes[e.lane]--
	e.issued, e.doneAt = true, now+e.lat
	w.log = append(w.log, refIssue{now, ord, e.doneAt})
	if e.squash != 0 && ord+e.squash < w.tail {
		w.squashes++
		return true, ord + e.squash
	}
	return true, 0
}

// refScan is the reference: the window scan, in the structure of the core's
// and the engines' issue loops before the index existed.
type refScan struct {
	*refWindow
	issueOrd uint64
	n        int // unissued entries
	bound    int // cycles the reach cut the scan short after an issue
}

func (m *refScan) unissued() int    { return m.n }
func (m *refScan) added(ord uint64) { m.n++ }

func (m *refScan) ready(e *refEntry, now uint64) bool {
	for _, p := range e.srcs {
		if p == NoOrd || p < m.head {
			continue // none, or a retired producer
		}
		if s := m.at(p); !s.issued || s.doneAt > now {
			return false
		}
	}
	return true
}

func (m *refScan) issue(now uint64, lanes *[3]int) {
	if m.issueOrd < m.head {
		m.issueOrd = m.head
	}
	for m.issueOrd < m.tail && m.at(m.issueOrd).issued {
		m.issueOrd++
	}
	scanned, issues := 0, len(m.log)
	ord := m.issueOrd
	for ; ord < m.tail && scanned < m.shape.limit; ord++ {
		e := m.at(ord)
		if e.issued {
			continue
		}
		scanned++
		if !m.ready(e, now) {
			continue
		}
		issued, from := m.tryIssue(ord, now, lanes)
		if !issued {
			continue
		}
		m.n--
		if from != 0 {
			for o := from; o < m.tail; o++ {
				if !m.at(o).issued {
					m.n--
				}
			}
			m.tail = from
			m.issueOrd = min(m.issueOrd, from)
		}
	}
	if ord < m.tail && len(m.log) > issues {
		m.bound++
	}
}

// refIndexed drives the same kind of window through IssueQueue, starting
// from its smallest ring and growing it whenever the window fills it.
type refIndexed struct {
	*refWindow
	q        IssueQueue
	capacity uint64
}

func newRefIndexed(w *refWindow) *refIndexed {
	m := &refIndexed{refWindow: w, capacity: 64}
	m.q.Reset(int(m.capacity))
	return m
}

func (m *refIndexed) unissued() int { return m.q.Len() }

func (m *refIndexed) added(ord uint64) {
	if ord-m.head == m.capacity {
		m.q.Grow(m.head, ord)
		m.capacity *= 2
	}
	m.q.Insert(ord, m.at(ord).srcs)
}

func (m *refIndexed) issue(now uint64, lanes *[3]int) {
	m.q.Select(m.head, m.tail, now, m.shape.limit)
	for ord, ok := m.q.Next(); ok; ord, ok = m.q.Next() {
		issued, from := m.tryIssue(ord, now, lanes)
		if !issued {
			continue
		}
		if from != 0 {
			// The squash lands before the squashing entry's own wakeup, as
			// a helper-thread store's load violation does.
			m.q.Squash(m.head, from, m.tail)
			m.tail = from
		}
		m.q.Issue(ord, m.at(ord).doneAt)
	}
}

func (m *refIndexed) audit() error {
	return m.q.Audit(m.head, m.tail, func(ord uint64) EntryView {
		e := m.at(ord)
		return EntryView{Issued: e.issued, DoneAt: e.doneAt, Srcs: e.srcs}
	})
}

func TestIssueQueueMatchesScan(t *testing.T) {
	const cycles = 6000
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for _, shape := range refShapes {
		t.Run(shape.name, func(t *testing.T) {
			var issued, squashes, bound, grown, far int
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				ref := &refScan{refWindow: newRefWindow(shape, seed)}
				idx := newRefIndexed(newRefWindow(shape, seed))
				jumps := rand.New(rand.NewPCG(seed, 1))
				now := uint64(0)
				for step := 0; step < cycles; step++ {
					now++
					if jumps.IntN(20) == 0 {
						now += uint64(jumps.IntN(2 * wheelSize))
					}
					ref.cycle(ref, now)
					idx.cycle(idx, now)
					if idx.q.far >= 0 {
						far++
					}
					if len(ref.log) != len(idx.log) || ref.head != idx.head || ref.tail != idx.tail {
						t.Fatalf("seed %d cycle %d: scan issued %d (window [%d,%d)), index issued %d (window [%d,%d))\n%s",
							seed, now, len(ref.log), ref.head, ref.tail, len(idx.log), idx.head, idx.tail,
							firstDiff(ref.log, idx.log))
					}
					if now%97 == 0 {
						if err := idx.audit(); err != nil {
							t.Fatalf("seed %d cycle %d: %v", seed, now, err)
						}
					}
				}
				if d := firstDiff(ref.log, idx.log); d != "" {
					t.Fatalf("seed %d: %s", seed, d)
				}
				issued += len(ref.log)
				squashes += ref.squashes
				bound += ref.bound
				if idx.capacity > 64 {
					grown++
				}
			}
			t.Logf("%d issues, %d squashes, %d cycles cut short by the reach after issuing, %d/%d runs grew the ring, %d cycles with far timers",
				issued, squashes, bound, grown, seeds, far)
			if shape.maxLat > wheelSize && far == 0 {
				t.Errorf("no readyAt beyond the timer wheel exercised")
			}
			if shape.squashP > 0 && squashes == 0 {
				t.Errorf("no squash exercised")
			}
			if (shape.iq == 0 || shape.iq > shape.limit) && bound == 0 {
				t.Errorf("the reach never cut a scan short after an issue")
			}
			if shape.rob > 64 && grown == 0 {
				t.Errorf("ring growth not exercised")
			}
		})
	}
}

func firstDiff(a, b []refIssue) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("issue %d: scan %+v, index %+v", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("scan issued %d, index %d", len(a), len(b))
	}
	return ""
}

// The audit must notice an index that disagrees with its window.
func TestIssueQueueAuditCatchesDrift(t *testing.T) {
	build := func() (*refIndexed, uint64) {
		m := newRefIndexed(newRefWindow(refShapes[2], 7))
		now := uint64(0)
		for ; now < 400 || m.q.Len() == 0 || m.q.Len() == int(m.tail-m.head); now++ {
			m.cycle(m, now)
		}
		if err := m.audit(); err != nil {
			t.Fatalf("clean index fails its audit: %v", err)
		}
		return m, now
	}
	first := func(m *refIndexed, want func(e *refEntry, ord uint64) bool) uint64 {
		for ord := m.head; ord < m.tail; ord++ {
			if want(m.at(ord), ord) {
				return ord
			}
		}
		t.Fatal("no entry of the wanted kind in the window")
		return 0
	}
	cases := []struct {
		name    string
		corrupt func(m *refIndexed, now uint64)
	}{
		{"unissued-bit", func(m *refIndexed, now uint64) {
			ord := first(m, func(e *refEntry, _ uint64) bool { return e.issued })
			s := ord & m.q.mask
			m.q.unissued[s>>6] |= 1 << (s & 63)
		}},
		{"armed-bit", func(m *refIndexed, now uint64) {
			ord := first(m, func(e *refEntry, ord uint64) bool { return !e.issued && m.q.slots[ord&m.q.mask].pending > 0 })
			s := ord & m.q.mask
			m.q.armed[s>>6] |= 1 << (s & 63)
		}},
		{"ready-at", func(m *refIndexed, now uint64) {
			ord := first(m, func(e *refEntry, ord uint64) bool {
				s := ord & m.q.mask
				return !e.issued && m.q.armed[s>>6]>>(s&63)&1 != 0
			})
			m.q.readyAt[ord&m.q.mask] += 1000
		}},
		{"zero-latency-issue", func(m *refIndexed, now uint64) {
			m.q.now = now
			ord := first(m, func(e *refEntry, _ uint64) bool { return !e.issued })
			m.at(ord).issued, m.at(ord).doneAt = true, now
			m.q.Issue(ord, now)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, now := build()
			c.corrupt(m, now)
			if err := m.audit(); err == nil {
				t.Fatal("audit passed a corrupted index")
			} else {
				t.Log(err)
			}
		})
	}
}
