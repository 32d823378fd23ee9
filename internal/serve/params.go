package serve

import (
	"flag"
	"fmt"
	"maps"
	"net/url"
	"slices"
	"strings"

	"storagesched/internal/refine"
)

// MaxGridPoints caps the grid sizes a sweep may ask for (points and
// refine-max-points) on every front end. The grid is built before a
// daemon request is admitted, so an unchecked count would allocate on
// behalf of a request that may never run.
const MaxGridPoints = 4096

// SweepFlags holds one sweep's parameters as the command line or the
// /v1/sweep query sets them. RegisterSweepFlags declares them; Spec
// checks and resolves them into a SweepSpec.
type SweepFlags struct {
	dmin, dmax   float64
	points       int
	grid         string
	noSBO, noRLS bool
	pending      int
	refine       bool
	refineGap    float64
	refineMax    int

	// set holds the parameters alone, for Args and the query parser;
	// capped lists its grid-size flags, bounded by MaxGridPoints.
	set    *flag.FlagSet
	capped []*flag.Flag
}

// RegisterSweepFlags declares the sweep parameters on fs: dmin, dmax,
// points, grid, no-sbo and no-rls, and with batch also pending, refine,
// refine-gap and refine-max-points. It is the one declaration of their
// names, defaults and help texts; the /v1/sweep query parser reads the
// same set.
func RegisterSweepFlags(fs *flag.FlagSet, batch bool) *SweepFlags {
	p := newSweepFlags(batch)
	p.set.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	return p
}

func newSweepFlags(batch bool) *SweepFlags {
	p := &SweepFlags{set: flag.NewFlagSet("sweep", flag.ContinueOnError)}
	fs := p.set
	gridSize := func(v *int, name string, def int, usage string) {
		fs.IntVar(v, name, def, fmt.Sprintf("%s (at most %d)", usage, MaxGridPoints))
		p.capped = append(p.capped, fs.Lookup(name))
	}
	fs.Float64Var(&p.dmin, "dmin", 0.25, "smallest delta of the grid")
	fs.Float64Var(&p.dmax, "dmax", 8, "largest delta of the grid")
	gridSize(&p.points, "points", 32, "number of grid points")
	fs.StringVar(&p.grid, "grid", "geo", "grid spacing: geo | lin")
	fs.BoolVar(&p.noSBO, "no-sbo", false, "skip the SBO family")
	fs.BoolVar(&p.noRLS, "no-rls", false, "skip the RLS family")
	if batch {
		fs.IntVar(&p.pending, "pending", 0, "max instances in flight (0 = twice the workers)")
		fs.BoolVar(&p.refine, "refine", false, "adaptive two-pass sweep: re-sweep δ-intervals where each front's relative gap exceeds -refine-gap")
		fs.Float64Var(&p.refineGap, "refine-gap", refine.DefaultGap, "relative front gap above which the δ-interval is refined")
		gridSize(&p.refineMax, "refine-max-points", refine.DefaultMaxPoints, "refinement δ points budgeted per item")
	}
	return p
}

// Spec checks the parameters and resolves them into a SweepSpec: grid
// sizes within MaxGridPoints, at least one algorithm family, a valid
// refine.Config when refining, and the δ-grid itself. It is the only
// place sweep parameters are checked, so every front end refuses the
// same values before any sweep work starts.
func (p *SweepFlags) Spec() (SweepSpec, error) {
	spec := SweepSpec{
		SkipSBO:         p.noSBO,
		SkipRLS:         p.noRLS,
		MaxPending:      p.pending,
		Refine:          p.refine,
		RefineGap:       p.refineGap,
		RefineMaxPoints: p.refineMax,
	}
	for _, f := range p.capped {
		if n := f.Value.(flag.Getter).Get().(int); n > MaxGridPoints {
			return spec, fmt.Errorf("%s=%d: above the limit of %d grid points", f.Name, n, MaxGridPoints)
		}
	}
	if p.noSBO && p.noRLS {
		return spec, fmt.Errorf("both algorithm families skipped: nothing to sweep")
	}
	if p.refine {
		if _, err := (refine.Config{Gap: p.refineGap, MaxPoints: p.refineMax}).Normalized(); err != nil {
			return spec, err
		}
	}
	var err error
	spec.Deltas, err = BuildGrid(p.grid, p.dmin, p.dmax, p.points)
	return spec, err
}

// Args renders every parameter as a -name=value flag that parses back
// to the same values — how shard exec forwards its checked sweep to the
// sweepbatch subprocesses.
func (p *SweepFlags) Args() []string {
	var args []string
	p.set.VisitAll(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
	return args
}

// querySpec resolves a /v1/sweep query through the batch flag set: a
// name the set does not declare is refused rather than silently run
// with defaults, each non-empty value is parsed as its flag would parse
// it, and Spec checks the result. Nothing here allocates a grid larger
// than MaxGridPoints.
func querySpec(q url.Values) (SweepSpec, error) {
	p := newSweepFlags(true)
	for _, name := range slices.Sorted(maps.Keys(q)) {
		f := p.set.Lookup(name)
		if f == nil {
			var names []string
			p.set.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
			return SweepSpec{}, fmt.Errorf("unknown query parameter %q (want one of %s)", name, strings.Join(names, ", "))
		}
		v := q.Get(name)
		if v == "" {
			continue
		}
		if f.Value.Set(v) != nil {
			kind := "a number"
			switch f.Value.(flag.Getter).Get().(type) {
			case int:
				kind = "an integer"
			case bool:
				kind = "a boolean"
			}
			return SweepSpec{}, fmt.Errorf("query parameter %s=%q: not %s", name, v, kind)
		}
	}
	return p.Spec()
}
