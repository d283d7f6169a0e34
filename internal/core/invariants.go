// Controller-level invariant checks (see DESIGN.md · Verification): while an
// activation is live, the resource partition must match the Table I plan for
// the row's shape, each engine must respect its quota, and the prediction
// queues must obey their ring discipline. Run from the simulation loop when
// Config.Checks is enabled.
package core

import (
	"fmt"

	"phelps/internal/cpu"
	"phelps/internal/isa"
)

// CheckInvariants audits the active helper-thread partition. It returns nil
// when no activation is live: between activations the controller restores the
// full-machine limits itself and holds no engine or queue state to audit.
func (c *Controller) CheckInvariants() error {
	a := c.active
	if a == nil {
		return nil
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("core: invariant violated: %s", fmt.Sprintf(format, args...))
	}
	full := c.coreCfg.FullLimits()
	plan := cpu.PlanFor(a.row.Nested)
	if want := full.Scale(plan.MTNum, plan.MTDen); c.mt.Limits() != want {
		return fail("active main-thread limits %+v, plan requires %+v", c.mt.Limits(), want)
	}
	if n := len(a.engines); n != len(a.row.Progs) || n < 1 || n > 2 {
		return fail("%d engines for %d helper programs", n, len(a.row.Progs))
	}
	for i, e := range a.engines {
		var want cpu.Limits
		switch a.row.Progs[i].Kind {
		case Outer:
			want = full.Scale(plan.OTNum, plan.OTDen)
		default: // InnerOnly, Inner
			want = full.Scale(plan.ITNum, plan.ITDen)
		}
		if e.lim != want {
			return fail("engine %d (%v) limits %+v, plan requires %+v", i, a.row.Progs[i].Kind, e.lim, want)
		}
		if err := e.checkInvariants(); err != nil {
			return fail("engine %d (%v): %v", i, a.row.Progs[i].Kind, err)
		}
	}
	for i, qs := range a.sets {
		// Ring discipline: the deposit point may lag the free point (a slow
		// helper thread), but may never overrun it past the reserved column.
		if int64(qs.tail)-int64(qs.head) > int64(qs.depth)-1 {
			return fail("queue set %d tail %d overruns head %d (depth %d)", i, qs.tail, qs.head, qs.depth)
		}
		if qs.specHead < qs.head {
			return fail("queue set %d spec_head %d behind head %d", i, qs.specHead, qs.head)
		}
	}
	return nil
}

// checkInvariants audits one engine's occupancy against its partition quota,
// recounts its store ring from the window, and audits its issue index
// (cpu.IssueQueue.Audit).
func (e *Engine) checkInvariants() error {
	if e.tail < e.head {
		return fmt.Errorf("window tail %d behind head %d", e.tail, e.head)
	}
	if occ := int(e.tail - e.head); occ > e.lim.ROB {
		return fmt.Errorf("window occupancy %d outside quota [0,%d]", occ, e.lim.ROB)
	}
	if e.nLoads < 0 || e.nLoads > e.lim.LQ {
		return fmt.Errorf("nLoads %d outside quota [0,%d]", e.nLoads, e.lim.LQ)
	}
	if n := e.storeTail - e.storeHead; e.storeTail < e.storeHead || n > uint64(e.lim.SQ) {
		return fmt.Errorf("store ring [%d,%d) outside quota [0,%d]", e.storeHead, e.storeTail, e.lim.SQ)
	}
	if e.nDests < 0 || e.nDests > e.lim.PRF-isa.NumRegs {
		return fmt.Errorf("nDests %d outside quota [0,%d] (PRF %d)", e.nDests, e.lim.PRF-isa.NumRegs, e.lim.PRF)
	}
	i, mask := e.storeHead, uint64(len(e.stores)-1)
	for ord := e.head; ord < e.tail; ord++ {
		if !e.entry(ord).hi.Inst.Op.IsStore() {
			continue
		}
		if i == e.storeTail || e.stores[i&mask] != ord {
			return fmt.Errorf("window store at ordinal %d missing from the store ring", ord)
		}
		i++
	}
	if i != e.storeTail {
		return fmt.Errorf("store ring holds %d ordinals past the window's stores", e.storeTail-i)
	}
	return e.iq.Audit(e.head, e.tail, func(ord uint64) cpu.EntryView {
		ent := e.entry(ord)
		return cpu.EntryView{Issued: ent.issued, DoneAt: ent.doneAt,
			Srcs: [cpu.MaxSrcs]uint64{ent.srcs[0], ent.srcs[1], ent.predSrc}}
	})
}
