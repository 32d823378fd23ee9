package engine

// Front caching for SweepBatch. Completed sweep fronts are stored in
// a content-addressed cache (internal/cache) keyed by the item's
// canonical bytes plus a fingerprint of the parts of the effective
// Config that determine the outcome. The batch's admission step
// consults the cache before job generation: a hit skips the item's
// jobs entirely and its Result — identical to a computed one's — is
// emitted in the usual stream order; a miss records the key so the
// completed front is written back at emission.

import (
	"fmt"
	"strconv"
	"strings"

	"storagesched/internal/cache"
	"storagesched/internal/makespan"
)

// fingerprintVersion prefixes every config fingerprint; bump it when
// the wire format or the semantics of a sweep change, so entries
// written by older code become misses.
const fingerprintVersion = "fp1"

// resultDigest is the SHA-256 of the cold-sweep wire bytes of a fixed
// corpus under fingerprintVersion (TestCacheFingerprintPinned). A
// solver change that moves it must bump fingerprintVersion too.
const resultDigest = "6d0c2d7f82f262c000b0397c148c9570180eecd790ecd523110b6bbca6fa5420"

// configFingerprint renders the result-determining part of an
// effective sweep config for a given item kind. It is deliberately
// *normalized*: fields that cannot influence the item's Result —
// Workers, the SBO sub-algorithms of a graph item, tie-breaks when no
// RLS run is selected, sub-δ grid points of a graph item — are
// excluded, so configs that differ only in irrelevant ways still share
// cache entries.
func configFingerprint(cfg Config, graph bool) string {
	var b strings.Builder
	b.WriteString(fingerprintVersion)
	if graph {
		b.WriteString("|graph")
	}
	runsSBO := !graph && !cfg.SkipSBO
	b.WriteString("|d=")
	runsRLS := false
	for _, d := range cfg.Deltas {
		rls := !cfg.SkipRLS && d >= 2
		runsRLS = runsRLS || rls
		if !runsSBO && !rls {
			// The point generates no job for this item (graph items and
			// SkipSBO configs run nothing below δ = 2); it is inert and
			// must not split cache entries.
			continue
		}
		// Hex float form is exact: distinct float64 grids never alias.
		b.WriteString(strconv.FormatFloat(d, 'x', -1, 64))
		b.WriteByte(',')
	}
	if runsSBO {
		algC, algM := cfg.AlgC, cfg.AlgM
		if algC == nil {
			algC = makespan.LPT{}
		}
		if algM == nil {
			algM = makespan.LPT{}
		}
		// Type plus exported parameters (e.g. PTAS{Epsilon:0.25})
		// identify a sub-algorithm configuration.
		fmt.Fprintf(&b, "|algC=%T%+v|algM=%T%+v", algC, algC, algM, algM)
	}
	if runsRLS {
		ties := cfg.Ties
		if ties == nil {
			ties = DefaultTies
		}
		b.WriteString("|ties=")
		for _, tie := range ties {
			b.WriteString(tie.String())
			b.WriteByte(',')
		}
	}
	return b.String()
}

// itemKey computes the cache key of a valid batch item whose effective
// config has fingerprint fp (configFingerprint).
func itemKey(st *batchState, fp string) cache.Key {
	var canonical []byte
	if st.g != nil {
		canonical = cache.CanonicalGraph(st.g)
	} else {
		canonical = cache.CanonicalInstance(st.in)
	}
	return cache.KeyFor(canonical, fp)
}

// wireVersion guards the cached-Result encoding (appendResult); bump it
// whenever the entry layout changes so stale entries decode as misses.
const wireVersion = 1

// CheckCachedResult reports whether data decodes as a cached sweep
// Result — the integrity check `schedcli cache verify` and the cache
// lifecycle run over stored entries. Any defect the decoder treats as a
// miss is the returned error: malformed or trailing bytes, a wrong
// version, or a Result that fails checkResult (inconsistent bounds, a
// run below them or above the Lemma 4 memory cap, a front other than
// the one the runs assemble to).
func CheckCachedResult(data []byte) error {
	_, err := decodeResult(data)
	return err
}
