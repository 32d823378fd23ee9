package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"net/url"
	"os"
	"slices"
	"strings"
	"testing"

	"storagesched/internal/engine"
	"storagesched/internal/model"
	"storagesched/internal/refine"
)

// cliSpec parses the query's parameters the way the command line does:
// each non-empty value becomes one -name=value argument of a sweepbatch
// flag set.
func cliSpec(q url.Values) (SweepSpec, error) {
	var args []string
	for _, name := range slices.Sorted(maps.Keys(q)) {
		if v := q.Get(name); v != "" {
			args = append(args, "-"+name+"="+v)
		}
	}
	fs := flag.NewFlagSet("sweepbatch", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p := RegisterSweepFlags(fs, true)
	if err := fs.Parse(args); err != nil {
		return SweepSpec{}, err
	}
	return p.Spec()
}

// sameSpec compares two specs field by field, NaN equal to NaN (an
// unused refine-gap may be NaN when refine is off).
func sameSpec(a, b SweepSpec) bool {
	return fmt.Sprintf("%+v", a) == fmt.Sprintf("%+v", b)
}

// TestSweepParamsSameOnEveryFrontEnd: the CLI flags and the /v1/sweep
// query parse one declaration, so the same parameters give the same
// spec — integer syntax included. A leading zero is octal on both, as
// Go's flag package reads integers.
func TestSweepParamsSameOnEveryFrontEnd(t *testing.T) {
	for _, c := range []struct {
		query  string
		points int
	}{
		{"", 32},
		{"points=010", 8},
		{"points=0x10&grid=lin", 16},
		{"points=%2B5&dmin=0.5&dmax=4", 5},
		{"dmin=1e-1&dmax=8.5&points=7&no-sbo=true", 7},
		{"no-rls=1&pending=3&refine=t&refine-gap=0.05&refine-max-points=012", 32},
		{"refine=0&refine-gap=NaN", 32},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := querySpec(q)
		if err != nil {
			t.Fatalf("query %q: %v", c.query, err)
		}
		want, err := cliSpec(q)
		if err != nil {
			t.Fatalf("flags of %q: %v", c.query, err)
		}
		if !sameSpec(got, want) {
			t.Errorf("query %q gives %+v, flags give %+v", c.query, got, want)
		}
		if len(got.Deltas) != c.points {
			t.Errorf("query %q: %d grid points, want %d", c.query, len(got.Deltas), c.points)
		}
	}
}

// TestAPIDocListsEverySweepParameter: every sweep parameter, with its
// default, is a row of the docs/API.md /v1/sweep table.
func TestAPIDocListsEverySweepParameter(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("sweepbatch", flag.ContinueOnError)
	RegisterSweepFlags(fs, true)
	fs.VisitAll(func(f *flag.Flag) {
		row := fmt.Sprintf("| `%s` | `%s` |", f.Name, f.DefValue)
		if !strings.Contains(string(doc), row) {
			t.Errorf("docs/API.md has no row starting %q", row)
		}
	})
}

// FuzzSweepQuery: any raw query string is either refused or resolves
// to a spec the engine and the refiner accept — a non-empty grid of at
// most MaxGridPoints finite positive δ values and at least one
// algorithm family — and the same parameters given as command-line
// flags resolve to the same spec.
func FuzzSweepQuery(f *testing.F) {
	for _, s := range []string{
		"",
		"dmin=0.5&dmax=8&points=6",
		"points=010&grid=lin",
		"refine=1&refine-gap=0.05&refine-max-points=6",
		"refine=1&refine-gap=NaN",
		"no-sbo=1&no-rls=true",
		"points=4096&dmin=5e-324&dmax=1e300",
		"pending=-3&refine-max-points=0x10",
		"point=8",
		"dmin=%zz",
	} {
		f.Add(s)
	}
	in := model.NewInstance(2, []model.Time{3, 1, 2}, []model.Mem{1, 2, 2})
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as Request.URL.Query does
		spec, err := querySpec(q)
		if err != nil {
			return
		}
		if n := len(spec.Deltas); n == 0 || n > MaxGridPoints {
			t.Fatalf("%q: %d grid points", raw, n)
		}
		for _, d := range spec.Deltas {
			if !(d > 0) || math.IsInf(d, 0) {
				t.Fatalf("%q: grid point %g", raw, d)
			}
		}
		if spec.SkipSBO && spec.SkipRLS {
			t.Fatalf("%q: both families skipped", raw)
		}
		if spec.Refine {
			rcfg := refine.Config{Gap: spec.RefineGap, MaxPoints: spec.RefineMaxPoints}
			if _, err := rcfg.Normalized(); err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
		}
		if len(spec.Deltas) <= 8 {
			cfg := engine.Config{Deltas: spec.Deltas, Workers: 1, SkipSBO: spec.SkipSBO, SkipRLS: spec.SkipRLS}
			if _, err := engine.Sweep(context.Background(), in, cfg); err != nil {
				t.Fatalf("%q: engine refused the spec: %v", raw, err)
			}
		}
		cli, err := cliSpec(q)
		if err != nil {
			t.Fatalf("%q: the query is accepted but its flags are not: %v", raw, err)
		}
		if !sameSpec(spec, cli) {
			t.Fatalf("%q: query gives %+v, flags give %+v", raw, spec, cli)
		}
	})
}
