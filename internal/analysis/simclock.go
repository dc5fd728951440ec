package analysis

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the package time functions that read or wait on the
// host clock. time.Duration arithmetic and the Duration/Time types are fine:
// the contract bans observing host time, not describing spans of virtual
// time.
var wallClockFuncs = map[string]string{
	"Now":       "use virtual time (sim.Env.Now / sim.Proc.Now)",
	"Since":     "use virtual time (sim.Env.Now / sim.Proc.Now)",
	"Until":     "use virtual time (sim.Env.Now / sim.Proc.Now)",
	"Sleep":     "use sim.Proc.Sleep, which advances virtual time",
	"After":     "use sim.Env.Schedule",
	"Tick":      "use sim.Env.Schedule",
	"NewTimer":  "use sim.Env.Schedule",
	"NewTicker": "use sim.Env.Schedule",
	"AfterFunc": "use sim.Env.Schedule",
}

// AnalyzerSimClock flags references to wall-clock functions in package time.
// The simulator's notion of time is virtual, owned by internal/sim; any host
// clock read makes run output depend on machine speed.
//
// Two kinds of package are exempt, making them the module's only host-time
// surface: internal/perf (the host clock, which exports perf.NowNS for
// everyone else) and the cmd/ binaries (drivers outside the simulation).
// Any other package wanting host time must route through internal/perf or
// carry a //splitlint:ignore directive with a reason.
var AnalyzerSimClock = &Analyzer{
	Name: "simclock",
	Doc:  "forbid wall-clock reads; virtual time comes from internal/sim",
	Run: func(pass *Pass) {
		if pass.Path == pass.ModPath+"/internal/perf" ||
			strings.HasPrefix(pass.Path, pass.ModPath+"/cmd/") {
			return
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				hint, banned := wallClockFuncs[sel.Sel.Name]
				if !banned || qualifier(pass, file, sel) != "time" {
					return true
				}
				pass.Reportf("", sel.Pos(), "time.%s reads the host clock; %s", sel.Sel.Name, hint)
				return true
			})
		}
	},
}
