package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// AnalyzerHotPurity enforces the event-loop purity contract interprocedurally.
//
// The DES event loop runs scheduled callbacks and the block-layer scheduler
// surface (Elevator.Add/Next/Completed) to completion on a single goroutine;
// a blocking operation anywhere in that call tree deadlocks or serializes
// the simulation, and the planned flat-event-loop rewrite (ROADMAP item 1)
// additionally requires the hot path to be allocation-free. The per-file
// nogoroutine analyzer catches direct violations inside DES-core packages;
// this analyzer walks the whole-module call graph so a violation one or five
// calls deep — or behind an interface dispatch — is caught too.
//
// Roots (see callgraph.go): module implementations of block.Elevator's
// Add/Next/Completed; callbacks registered at any sim handler registration
// point — Env.Schedule/ScheduleAt, Completion.OnComplete/WaitFn,
// WaitQueue.WaitFn/WaitTimeoutFn, and sim.WaitAllFn continuations (the
// parked-continuation surface the run-to-completion kernel daemons block
// through); //splitlint:hot-annotated functions. sim.Env.Go bodies are NOT
// roots: processes are coroutines and may block.
//
// Violations in the reachable set: goroutine spawns, channel operations
// (send/recv/select/range), blocking stdlib calls (mutex lock, WaitGroup /
// Cond wait, Once.Do, time.Sleep), and any call into a host-state package
// (os, syscall, net, os/exec). sync/atomic is allowed: atomics never block.
//
// Additionally, //splitlint:hot functions (and their nested literals) must
// not allocate: make/new, &T{...}, slice/map literals, closures, and
// string<->[]byte conversions are flagged inside them. Value composite
// literals and append to an existing slice are allowed (amortized /
// stack-allocated).
//
// The sim kernel's own coroutine handoff (runProc / block) necessarily
// performs the park/resume channel operations; those lines carry
// //splitlint:ignore hotpurity directives with reasons — they are the
// mechanism, not a violation of it.
var AnalyzerHotPurity = &Analyzer{
	Name:      "hotpurity",
	Doc:       "event-loop-reachable code must not block, spawn goroutines, or allocate in //splitlint:hot regions",
	RunModule: runHotPurity,
}

func runHotPurity(m *Module) {
	g := buildCallGraph(m)
	roots := g.hotRoots()

	// Deterministic BFS: roots in position order, edges in recording order.
	parent := map[*cgNode]*cgNode{}
	rootOf := map[*cgNode]*cgNode{}
	var queue []*cgNode
	var rootList []*cgNode
	for n := range roots {
		rootList = append(rootList, n)
	}
	sort.Slice(rootList, func(i, j int) bool { return rootList[i].pos < rootList[j].pos })
	for _, n := range rootList {
		if _, seen := parent[n]; seen {
			continue
		}
		parent[n] = nil
		rootOf[n] = n
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.calls {
			if _, seen := parent[e.to]; seen {
				continue
			}
			parent[e.to] = n
			rootOf[e.to] = rootOf[n]
			queue = append(queue, e.to)
		}
	}

	// Report blocking ops at their site, with the chain back to the root so
	// the finding is actionable without re-deriving reachability by hand.
	for _, n := range g.nodes {
		if _, reachable := parent[n]; !reachable {
			continue
		}
		root := rootOf[n]
		why := roots[root]
		for _, op := range n.ops {
			switch op.kind {
			case opGo:
				m.Reportf(op.pos, "%s on the event-loop hot path: %s%s", op.detail, chainString(parent, roots, n), rootNote(root, why))
			case opChanOp:
				m.Reportf(op.pos, "blocking %s on the event-loop hot path: %s%s", op.detail, chainString(parent, roots, n), rootNote(root, why))
			case opBlockCall:
				m.Reportf(op.pos, "blocking call to %s on the event-loop hot path: %s%s", op.detail, chainString(parent, roots, n), rootNote(root, why))
			case opHostCall:
				m.Reportf(op.pos, "host-state call %s on the event-loop hot path: %s%s", op.detail, chainString(parent, roots, n), rootNote(root, why))
			}
		}
	}

	// Allocation check: local to hot regions (the function and its nested
	// literals), independent of reachability.
	for _, n := range g.nodes {
		if !n.hot {
			continue
		}
		for _, op := range n.ops {
			if op.kind == opAlloc {
				m.Reportf(op.pos, "allocation in //splitlint:hot region %s: %s; preallocate outside the hot path", n.name, op.detail)
			}
		}
	}
}

// chainString renders the call chain from the root down to n, e.g.
// "reachable via (*internal/block.Layer).dispatchStep -> internal/sched/afq.pump".
func chainString(parent map[*cgNode]*cgNode, roots map[*cgNode]string, n *cgNode) string {
	var names []string
	for cur := n; cur != nil; cur = parent[cur] {
		names = append(names, cur.name)
		if _, isRoot := roots[cur]; isRoot && parent[cur] == nil {
			break
		}
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return "reachable via " + strings.Join(names, " -> ")
}

// rootNote appends the justification for why the chain's root is hot.
func rootNote(root *cgNode, why string) string {
	return fmt.Sprintf(" (%s is a %s)", root.name, why)
}
