// Multi-tenant contention: NodeShares models proportional capacity
// sharing when several executors (one per cluster job) run on the same
// grid in one virtual-time engine.
//
// Each executor still gates its own concurrency at a node's core count
// (busy < Cores), so a single-tenant node behaves exactly as before.
// When tenants overlap, the node's cores are shared processor-style:
// with k in-service tasks cluster-wide on a C-core node, every task
// progresses at min(1, C/k) of the node's effective speed. A share
// change mid-service rescales every in-service task on the node — the
// work done so far under the old share is banked (grid.Node.WorkIn,
// the same quantised integral ServiceDuration uses) and the remaining
// work is rescheduled under the new share.
//
// Single-job runs never construct a NodeShares: every branch in the
// executor hot path is guarded by e.share != nil, so the one-tenant
// event sequence stays bit-identical to the pre-cluster executor
// (pinned by the F1–F11 goldens and golden_test.go).
package exec

import (
	"cmp"
	"fmt"
	"slices"

	"gridpipe/internal/grid"
)

// NodeShares is the shared contention ledger of one cluster: per node,
// the number of in-service tasks across every attached executor, and
// the live tenants — the executors holding at least one of those
// tasks, in attach order. A rescale walks only a node's live tenants,
// so its cost tracks the tenants on the node, not every executor ever
// attached; and the ledger holds no reference to an executor with
// nothing in service, so a finished job's executor can be collected.
type NodeShares struct {
	g        *grid.Grid
	attached int
	count    []int
	live     [][]*Executor
}

// NewNodeShares returns an empty ledger for the grid. Pass it as
// Options.Share to every executor multiplexed onto the grid; executors
// attach themselves at construction, in New order (which fixes the
// deterministic rescale order).
func NewNodeShares(g *grid.Grid) *NodeShares {
	return &NodeShares{
		g:     g,
		count: make([]int, g.NumNodes()),
		live:  make([][]*Executor, g.NumNodes()),
	}
}

// attach registers an executor, stamping its attach order; called by
// New when Options.Share is set.
func (sh *NodeShares) attach(e *Executor) error {
	if e.g != sh.g {
		return fmt.Errorf("exec: NodeShares built for a different grid")
	}
	e.shareSeq = sh.attached
	sh.attached++
	return nil
}

// join adds e to node n's live tenants, keeping attach order; called
// when e's in-service count on n goes 0→1.
func (sh *NodeShares) join(n grid.NodeID, e *Executor) {
	i, _ := slices.BinarySearchFunc(sh.live[n], e.shareSeq, func(x *Executor, seq int) int {
		return cmp.Compare(x.shareSeq, seq)
	})
	sh.live[n] = slices.Insert(sh.live[n], i, e)
}

// leave removes e from node n's live tenants, keeping the rest in
// order; called when e's in-service count on n goes 1→0.
func (sh *NodeShares) leave(n grid.NodeID, e *Executor) {
	i := slices.Index(sh.live[n], e)
	sh.live[n] = slices.Delete(sh.live[n], i, i+1)
}

// LiveTenants returns how many executors have in-service tasks on
// node n.
func (sh *NodeShares) LiveTenants(n grid.NodeID) int { return len(sh.live[n]) }

// InService returns the cluster-wide in-service task count on node n.
func (sh *NodeShares) InService(n grid.NodeID) int { return sh.count[n] }

// Mult returns the current capacity share of each in-service task on
// node n: min(1, Cores/k).
func (sh *NodeShares) Mult(n grid.NodeID) float64 {
	c := sh.g.Node(n).Cores
	if sh.count[n] <= c {
		return 1
	}
	return float64(c) / float64(sh.count[n])
}

// beginService accounts one task entering service on node n at time
// now, rescaling the tasks already in service if their share shrinks,
// and returns the share the new task starts under.
func (sh *NodeShares) beginService(n grid.NodeID, now float64) float64 {
	c := sh.g.Node(n).Cores
	sh.count[n]++
	if sh.count[n] > c {
		sh.rescale(n, now)
	}
	return sh.Mult(n)
}

// endService accounts one task leaving service on node n at time now,
// rescaling the remaining tasks if their share grows.
func (sh *NodeShares) endService(n grid.NodeID, now float64) {
	c := sh.g.Node(n).Cores
	over := sh.count[n] > c
	sh.count[n]--
	if over {
		sh.rescale(n, now)
	}
}

// rescale re-banks and reschedules every in-service task on node n
// under the node's current share. Iteration order — live tenants in
// attach order, tasks in in-service slice order — is deterministic,
// so the rescheduled event sequence is reproducible.
func (sh *NodeShares) rescale(n grid.NodeID, now float64) {
	node := sh.g.Node(n)
	mult := sh.Mult(n)
	for _, e := range sh.live[n] {
		ns := e.nodes[n]
		for _, t := range ns.inService {
			if t.mult == mult {
				continue
			}
			done := t.mult * node.WorkIn(t.lastT, now-t.lastT)
			t.rem -= done
			if t.rem < 0 {
				t.rem = 0
			}
			t.lastT = now
			t.mult = mult
			t.completion.Cancel()
			dur := node.ServiceDuration(t.rem/mult, now)
			t.completion = e.eng.ScheduleArg(dur, ns.finishFn, t)
		}
	}
}
