// Wakeup/select issue index (DESIGN.md · Issue stage). The main core and
// every helper-thread engine keep their in-flight instructions in a ring
// addressed by a monotonically increasing ordinal; IssueQueue indexes the
// unissued part of such a window so that the issue stage visits only the
// entries that can issue, instead of rescanning the window every cycle.
//
// An entry records, when it enters the window, the in-flight producers it
// waits on. A producer that issues wakes its consumers with its completion
// cycle; a consumer whose last producer has issued is *armed*, and becomes
// *ready* once its readyAt (the latest producer completion) has passed: a
// timer wheel keyed by readyAt hands each waiting entry to the first Select
// at or after it, and Next walks the ready bitmap in age order. The result
// is exactly the old window scan's: the scheduler reach
// (Config.IQScanLimit) counts entries unissued at the start of the cycle,
// issuing in age order keeps lane arbitration and load disambiguation in
// age order, and a squash in the middle of select (a helper-thread store's
// load violation) takes the squashed entries out of the rest of the cycle.
package cpu

import (
	"fmt"
	"math/bits"
)

// NoOrd marks an absent producer ordinal.
const NoOrd = ^uint64(0)

// InfCycle is a cycle that never comes: the timestamp of "not scheduled".
const InfCycle = ^uint64(0)

// MaxSrcs is the number of producers an entry can wait on: two register
// sources and, on a helper thread, a predicate source.
const MaxSrcs = 3

// noEdge ends a consumer list. An edge names a consumer's source as
// ordinal<<2 | source index, so links survive ring growth unchanged.
const noEdge = ^uint64(0)

// wheelSize is the span, in cycles, of the timer wheel that makes armed
// entries ready; an entry armed further ahead parks in the far list. A
// power of two, covering a DRAM access.
const wheelSize = 256

// timer is a waiting entry's record in the wheel: its ordinal and the next
// record in the same bucket (or the far list); -1 ends a list.
type timer struct {
	ord  uint64
	next int32
}

// iqSlot is the wakeup state of one window entry.
type iqSlot struct {
	doneAt  uint64          // completion cycle, once issued
	first   uint64          // newest edge of the consumers waiting on this entry
	next    [MaxSrcs]uint64 // per source: the next-older edge in its producer's list
	pending uint8           // producers that have not issued
}

// IssueQueue is the wakeup/select index over one window ring. The owner
// keeps its entries; the index keeps their wakeup state by ring slot and
// three bitmaps over the slots: unissued entries, armed ones (every
// producer has issued) and ready ones (armed, and readyAt has passed).
// Ordinals outside the live window have all three bits clear.
type IssueQueue struct {
	slots    []iqSlot
	readyAt  []uint64 // per slot: latest completion among the producers that have issued
	mask     uint64
	unissued []uint64
	armed    []uint64
	ready    []uint64
	n        int // unissued entries
	nReady   int // ready entries

	now uint64 // cycle of the latest Select
	cur uint64 // next ordinal Next examines
	end uint64 // this cycle's reach: Next stops here

	// The timer wheel: bucket b lists the entries that become ready at the
	// cycle ≡ b (mod wheelSize) within wheelSize cycles of the latest
	// Select; far lists those due later (the earliest at farMin). Records
	// live in timers, recycled through free; a record whose entry was
	// squashed is dropped when its bucket comes due.
	timers []timer
	free   int32
	bucket [wheelSize]int32
	due    [wheelSize / 64]uint64 // non-empty buckets
	far    int32
	farMin uint64

	// instant is the first ordinal that issued with a completion cycle not
	// after its issue cycle (NoOrd: none). Select would miss a consumer such
	// an entry readies within the same cycle, so the audit reports it.
	instant uint64
}

// Reset empties the index and sizes it for at least capacity live entries
// (rounded up to a power of two, and at least one bitmap word), reusing its
// storage when it is large enough.
func (q *IssueQueue) Reset(capacity int) {
	n := 64
	for n < capacity {
		n <<= 1
	}
	if len(q.slots) < n {
		q.alloc(n)
	}
	q.Clear()
	q.now, q.instant = 0, NoOrd
}

func (q *IssueQueue) alloc(n int) {
	q.slots = make([]iqSlot, n)
	q.readyAt = make([]uint64, n)
	q.unissued = make([]uint64, n/64)
	q.armed = make([]uint64, n/64)
	q.ready = make([]uint64, n/64)
	q.mask = uint64(n - 1)
}

// Clear drops every entry (a full-window squash).
func (q *IssueQueue) Clear() {
	clear(q.unissued)
	clear(q.armed)
	clear(q.ready)
	q.n, q.nReady = 0, 0
	q.cur, q.end = 0, 0
	q.timers, q.free, q.far, q.farMin = q.timers[:0], -1, -1, InfCycle
	for b := range q.bucket {
		q.bucket[b] = -1
	}
	q.due = [wheelSize / 64]uint64{}
}

// Len returns the number of unissued entries.
func (q *IssueQueue) Len() int { return q.n }

// Grow doubles the index, re-laying the live ordinals [head, tail) out at
// their new slots (the owner's ring grew).
func (q *IssueQueue) Grow(head, tail uint64) {
	old := *q
	q.alloc(2 * len(old.slots))
	bit := func(bm []uint64, s uint64) uint64 { return bm[s>>6] >> (s & 63) & 1 }
	for ord := head; ord < tail; ord++ {
		s, t := ord&old.mask, ord&q.mask
		q.slots[t], q.readyAt[t] = old.slots[s], old.readyAt[s]
		q.unissued[t>>6] |= bit(old.unissued, s) << (t & 63)
		q.armed[t>>6] |= bit(old.armed, s) << (t & 63)
		q.ready[t>>6] |= bit(old.ready, s) << (t & 63)
	}
}

// Insert enters a new unissued entry. srcs are its in-flight producer
// ordinals (NoOrd for none); each must still be in the window. Entries
// enter after the cycle's Select.
func (q *IssueQueue) Insert(ord uint64, srcs [MaxSrcs]uint64) {
	s := ord & q.mask
	e := &q.slots[s]
	e.first = noEdge
	var pending uint8
	var readyAt uint64
	for k, p := range srcs {
		if p == NoOrd {
			continue
		}
		ps := p & q.mask
		if q.unissued[ps>>6]&(1<<(ps&63)) != 0 {
			pr := &q.slots[ps]
			e.next[k] = pr.first
			pr.first = ord<<2 | uint64(k)
			pending++
		} else if d := q.slots[ps].doneAt; d > readyAt {
			readyAt = d
		}
	}
	e.pending = pending
	q.readyAt[s] = readyAt
	q.unissued[s>>6] |= 1 << (s & 63)
	q.n++
	if pending == 0 {
		q.arm(ord, readyAt)
	}
}

// arm marks an entry armed: ready at once if readyAt has passed by the
// latest Select, else timed to become ready at the first Select at or after
// readyAt.
func (q *IssueQueue) arm(ord, readyAt uint64) {
	s := ord & q.mask
	q.armed[s>>6] |= 1 << (s & 63)
	if readyAt <= q.now {
		q.ready[s>>6] |= 1 << (s & 63)
		q.nReady++
		return
	}
	i := q.free
	if i >= 0 {
		q.free = q.timers[i].next
		q.timers[i].ord = ord
	} else {
		i = int32(len(q.timers))
		q.timers = append(q.timers, timer{ord: ord})
	}
	if readyAt-q.now < wheelSize {
		b := readyAt & (wheelSize - 1)
		q.timers[i].next = q.bucket[b]
		q.bucket[b] = i
		q.due[b>>6] |= 1 << (b & 63)
	} else {
		q.timers[i].next = q.far
		q.far = i
		q.farMin = min(q.farMin, readyAt)
	}
}

// fire makes a timed entry ready if it is still waiting and its readyAt has
// passed; a record whose entry was squashed (its slot empty, or holding a
// younger entry with its own record) finds nothing to do or finds that
// entry due as well.
func (q *IssueQueue) fire(ord, now uint64) {
	s := ord & q.mask
	b := uint64(1) << (s & 63)
	if q.armed[s>>6]&^q.ready[s>>6]&b != 0 && q.readyAt[s] <= now {
		q.ready[s>>6] |= b
		q.nReady++
	}
}

// Issue records that an entry Next returned issued, completing at doneAt,
// and wakes its consumers.
func (q *IssueQueue) Issue(ord, doneAt uint64) {
	s := ord & q.mask
	b := uint64(1) << (s & 63)
	q.n--
	q.nReady -= int(q.ready[s>>6] >> (s & 63) & 1)
	q.unissued[s>>6] &^= b
	q.armed[s>>6] &^= b
	q.ready[s>>6] &^= b
	if doneAt <= q.now && q.instant == NoOrd {
		q.instant = ord
	}
	e := &q.slots[s]
	e.doneAt = doneAt
	for id := e.first; id != noEdge; {
		cord := id >> 2
		cs := cord & q.mask
		c := &q.slots[cs]
		id = c.next[id&3]
		r := max(q.readyAt[cs], doneAt)
		q.readyAt[cs] = r
		if c.pending--; c.pending == 0 {
			q.arm(cord, r)
		}
	}
	e.first = noEdge
}

// reach returns the ordinal bound of the entries the issue stage examines
// in the window [head, tail): the oldest limit unissued entries, i.e. the
// ordinal of the unissued entry of rank limit, or tail when there are no
// more than limit.
func (q *IssueQueue) reach(head, tail uint64, limit int) uint64 {
	if q.n <= limit {
		return tail
	}
	left := limit
	for ord := head; ord < tail; {
		w, n := q.word(q.unissued, ord, tail)
		if c := bits.OnesCount64(w); c <= left {
			left -= c
		} else {
			for ; left > 0; left-- {
				w &= w - 1
			}
			return ord + uint64(bits.TrailingZeros64(w))
		}
		ord += n
	}
	return tail
}

// word returns the bits of bm for the ordinals from ord up to the end of
// ord's bitmap word or to end, whichever is first, shifted down so bit 0
// is ord, and the number of ordinals covered.
func (q *IssueQueue) word(bm []uint64, ord, end uint64) (uint64, uint64) {
	s := ord & q.mask
	w := bm[s>>6] >> (s & 63)
	n := 64 - (s & 63)
	if left := end - ord; left < n {
		w &= 1<<left - 1
		n = left
	}
	return w, n
}

// Select starts the issue stage at cycle now over the window [head, tail):
// it makes ready the waiting entries whose readyAt has arrived since the
// last Select, then sets Next to hand out the ready entries within the reach,
// oldest first. With no timer due and no entry ready it does nothing else.
func (q *IssueQueue) Select(head, tail, now uint64, limit int) {
	last := q.now
	q.now = now
	q.expire(last, now)
	if q.farMin < now+wheelSize {
		q.refile()
	}
	q.cur, q.end = head, head
	if q.nReady > 0 {
		q.end = q.reach(head, tail, limit)
	}
}

// expire fires the wheel buckets of the cycles (last, now]; after a jump of
// a whole wheel or more, every bucket once.
func (q *IssueQueue) expire(last, now uint64) {
	c := last + 1
	if now-last >= wheelSize {
		c = now - wheelSize + 1
	}
	for c <= now {
		b := c & (wheelSize - 1)
		w := q.due[b>>6] >> (b & 63)
		if w == 0 {
			c += 64 - (b & 63)
			continue
		}
		c += uint64(bits.TrailingZeros64(w))
		if c > now {
			return
		}
		b = c & (wheelSize - 1)
		q.due[b>>6] &^= 1 << (b & 63)
		i := q.bucket[b]
		for i >= 0 {
			t := &q.timers[i]
			q.fire(t.ord, now)
			next := t.next
			t.next, q.free = q.free, i
			i = next
		}
		q.bucket[b] = -1
		c++
	}
}

// refile re-times the far list's records now that some are within the
// wheel's span: each still-waiting entry is armed again (ready at once,
// into a bucket, or back to the far list, which recomputes farMin). It runs
// after expire, so no bucket it fills is due before its entry.
func (q *IssueQueue) refile() {
	i := q.far
	q.far, q.farMin = -1, InfCycle
	for i >= 0 {
		t := &q.timers[i]
		next := t.next
		t.next, q.free = q.free, i
		s := t.ord & q.mask
		if q.armed[s>>6]&^q.ready[s>>6]>>(s&63)&1 != 0 {
			// Re-arming re-times it: ready now, into a bucket, or back to far.
			q.armed[s>>6] &^= 1 << (s & 63)
			q.arm(t.ord, q.readyAt[s])
		}
		i = next
	}
}

// Next returns the next ready entry of the current Select, oldest first. It
// reads the ready bitmap afresh on every call, so entries issued or squashed
// since the last call are never returned.
func (q *IssueQueue) Next() (uint64, bool) {
	for q.cur < q.end {
		s := q.cur & q.mask
		if w := q.ready[s>>6] >> (s & 63); w != 0 {
			ord := q.cur + uint64(bits.TrailingZeros64(w))
			if ord >= q.end {
				break
			}
			q.cur = ord + 1
			return ord, true
		}
		q.cur += 64 - (s & 63)
	}
	return 0, false
}

// Squash drops the entries [from, tail) of the window [head, tail). In the
// middle of select, Next then skips them: it re-reads the ready bitmap.
func (q *IssueQueue) Squash(head, from, tail uint64) {
	if from <= head {
		q.Clear()
		return
	}
	for ord := from; ord < tail; {
		s := ord & q.mask
		w, n := q.word(q.unissued, ord, tail)
		r, _ := q.word(q.ready, ord, tail)
		m := (uint64(1)<<n - 1) << (s & 63) // n == 64 shifts to 0, so m is all ones
		q.n -= bits.OnesCount64(w)
		q.nReady -= bits.OnesCount64(r)
		q.unissued[s>>6] &^= m
		q.armed[s>>6] &^= m
		q.ready[s>>6] &^= m
		ord += n
	}
	// Consumers join a producer's list newest first, so the squashed ones
	// are a prefix of every surviving list.
	for ord := head; ord < from; {
		s := ord & q.mask
		w, n := q.word(q.unissued, ord, from)
		for ; w != 0; w &= w - 1 {
			p := &q.slots[s+uint64(bits.TrailingZeros64(w))]
			for p.first != noEdge && p.first>>2 >= from {
				p.first = q.slots[(p.first>>2)&q.mask].next[p.first&3]
			}
		}
		ord += n
	}
}

// EntryView is what the audit reads of a window entry: whether it has
// issued, its completion cycle if so, and the in-flight producers it
// entered the window with.
type EntryView struct {
	Issued bool
	DoneAt uint64
	Srcs   [MaxSrcs]uint64
}

// Audit recounts the index from the window [head, tail), read through view:
//   - the unissued bit is set exactly for the unissued entries, and an
//     issued entry's completion cycle matches the window's;
//   - an entry is armed exactly when every producer still in flight has
//     issued, and its pending count is the number that have not;
//   - an armed entry's readyAt is the latest completion among its in-flight
//     producers (a later one is allowed only from a producer that has since
//     retired, so it has passed by the latest Select);
//   - an armed entry is ready exactly when its readyAt has passed by the
//     latest Select (so no timer was lost);
//   - no issue completed in its own issue cycle.
func (q *IssueQueue) Audit(head, tail uint64, view func(ord uint64) EntryView) error {
	if q.instant != NoOrd {
		return fmt.Errorf("issue queue: ordinal %d issued with a completion cycle not after its issue cycle", q.instant)
	}
	n, nReady := 0, 0
	for ord := head; ord < tail; ord++ {
		v := view(ord)
		s := ord & q.mask
		e := &q.slots[s]
		bit := func(bm []uint64) bool { return bm[s>>6]>>(s&63)&1 != 0 }
		un, armed, ready := bit(q.unissued), bit(q.armed), bit(q.ready)
		if un == v.Issued {
			return fmt.Errorf("issue queue: ordinal %d unissued bit %v, window issued %v", ord, un, v.Issued)
		}
		if v.Issued {
			if armed || ready || e.doneAt != v.DoneAt {
				return fmt.Errorf("issue queue: issued ordinal %d armed %v ready %v doneAt %d, window doneAt %d",
					ord, armed, ready, e.doneAt, v.DoneAt)
			}
			continue
		}
		n++
		var waiting uint8
		var latest uint64
		retired := false
		for _, p := range v.Srcs {
			switch {
			case p == NoOrd:
			case p < head:
				retired = true
			case !view(p).Issued:
				waiting++
			default:
				latest = max(latest, view(p).DoneAt)
			}
		}
		if armed != (waiting == 0) || e.pending != waiting {
			return fmt.Errorf("issue queue: ordinal %d armed %v pending %d, window has %d unissued producers",
				ord, armed, e.pending, waiting)
		}
		if !armed {
			if ready {
				return fmt.Errorf("issue queue: ordinal %d ready but not armed", ord)
			}
			continue
		}
		r := q.readyAt[s]
		if r != latest && !(retired && r > latest && r <= q.now) {
			return fmt.Errorf("issue queue: ordinal %d readyAt %d, latest in-flight producer completes at %d", ord, r, latest)
		}
		if ready != (r <= q.now) {
			return fmt.Errorf("issue queue: ordinal %d ready %v with readyAt %d at cycle %d", ord, ready, r, q.now)
		}
		if ready {
			nReady++
		}
	}
	if n != q.n || nReady != q.nReady {
		return fmt.Errorf("issue queue: window holds %d unissued and %d ready entries, index counts %d and %d",
			n, nReady, q.n, q.nReady)
	}
	return nil
}
