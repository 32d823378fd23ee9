package storagesched

// Facade over the extension subsystems: uniform (related) machines,
// conditional task graphs, front-quality scoring, the
// discrete-event simulator and CSV trace interchange. These implement
// the future-work directions of the paper's concluding remarks; the
// derived guarantees are documented in the respective internal
// packages and enforced by their tests and the EXT* experiments.

import (
	"io"
	"math/rand"

	"storagesched/internal/condgraph"
	"storagesched/internal/dag"
	"storagesched/internal/pareto"
	"storagesched/internal/sim"
	"storagesched/internal/trace"
	"storagesched/internal/uniform"
)

// Uniform (related) machines.
type (
	// Speeds is the machine speed vector (all >= 1).
	Speeds = uniform.Speeds
	// UniformRat is an exact rational time (work/speed).
	UniformRat = uniform.Rat
	// SBOUniformResult is an SBO run on uniform machines.
	SBOUniformResult = uniform.SBOUniformResult
	// RLSUniformResult is an RLS run on uniform machines.
	RLSUniformResult = uniform.RLSUniformResult
)

// SBOUniform runs Algorithm 1 adapted to machine speeds; guarantee
// (Cmax ≤ (1+∆)·C, Mmax ≤ (1+Q/∆)·M) with Q the speed spread.
func SBOUniform(in *Instance, speeds Speeds, delta float64) (*SBOUniformResult, error) {
	return uniform.SBOUniform(in, speeds, delta)
}

// RLSUniform runs the memory-capped earliest-completion greedy on
// uniform machines; Mmax ≤ ∆·LB holds unchanged.
func RLSUniform(in *Instance, speeds Speeds, delta float64) (*RLSUniformResult, error) {
	return uniform.RLSUniform(in, speeds, delta)
}

// UniformCmax evaluates the exact rational makespan of an assignment
// under machine speeds.
func UniformCmax(p []Time, speeds Speeds, a Assignment) UniformRat {
	return uniform.Cmax(p, speeds, a)
}

// Conditional task graphs.
type (
	// CondGraph is a DAG with branch annotations.
	CondGraph = condgraph.CondGraph
	// CondScenario fixes branch outcomes and the active task set.
	CondScenario = condgraph.Scenario
	// CondMCResult aggregates a Monte Carlo policy comparison.
	CondMCResult = condgraph.MCResult
)

// NewCondGraph wraps a DAG for branch annotation via AddBranch.
func NewCondGraph(g *Graph) *CondGraph { return condgraph.New(g) }

// CondMonteCarlo compares the static-conservative and clairvoyant-
// dynamic RLS policies over sampled scenarios.
func CondMonteCarlo(cg *CondGraph, delta float64, trials int, seed int64) (*CondMCResult, error) {
	return condgraph.MonteCarlo(cg, delta, trials, seed)
}

// SampleScenario draws one branch outcome per choice point.
func SampleScenario(cg *CondGraph, rng *rand.Rand) CondScenario { return cg.Sample(rng) }

// InducedGraph extracts the active subgraph of a scenario together
// with the mapping from induced to original task ids.
func InducedGraph(cg *CondGraph, sc CondScenario) (*Graph, []int) {
	g, orig := cg.Induced(sc)
	var _ *dag.Graph = g
	return g, orig
}

// FrontEpsilon measures how closely a generated front — for example a
// Sweep's FrontValues — covers a reference front such as the exact
// ParetoFront (0 = full coverage).
func FrontEpsilon(generated, reference []Value) float64 {
	return pareto.EpsilonIndicator(generated, reference)
}

// Discrete-event simulation.
type (
	// SimReport summarises a replayed execution.
	SimReport = sim.Report
	// OnlineTask is a task with a release date.
	OnlineTask = sim.OnlineTask
	// OnlineResult is an online scheduling run.
	OnlineResult = sim.OnlineResult
)

// ReplaySchedule executes a schedule event by event, independently
// verifying overlap, precedence and the memory budget (0 = no budget).
func ReplaySchedule(sc *Schedule, prec [][]int, memCap Mem) (*SimReport, error) {
	return sim.Replay(sc, prec, memCap)
}

// OnlineRLS schedules released tasks greedily under a hard memory cap.
func OnlineRLS(tasks []OnlineTask, m int, memCap Mem) (*OnlineResult, error) {
	return sim.OnlineRLS(tasks, m, memCap)
}

// CSV trace interchange.

// WriteInstanceCSV emits "id,p,s,name" rows.
func WriteInstanceCSV(w io.Writer, in *Instance) error { return trace.WriteInstanceCSV(w, in) }

// ReadInstanceCSV parses a task table for m processors.
func ReadInstanceCSV(r io.Reader, m int) (*Instance, error) { return trace.ReadInstanceCSV(r, m) }

// WriteScheduleCSV emits "id,proc,start,p,s" rows.
func WriteScheduleCSV(w io.Writer, sc *Schedule) error { return trace.WriteScheduleCSV(w, sc) }

// ReadScheduleCSV parses a schedule table for m processors.
func ReadScheduleCSV(r io.Reader, m int) (*Schedule, error) { return trace.ReadScheduleCSV(r, m) }
