package engine

// The encoding/json entry codec the single-pass encoder and decoder
// replaced — the wire structs, refEncodeResult and refDecodeResult —
// kept as the differential reference for FuzzEncodeResult,
// FuzzDecodeResult and the codec tests, plus refCheck: the entry checks
// restated as literally as possible, the front check included as an
// equality with AssembleFront.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"storagesched/internal/bounds"
	"storagesched/internal/core"
	"storagesched/internal/model"
)

// wireResult is the cached form of a Result: the bounds record, each
// run's provenance (algorithm, tie, δ), achieved objective value and
// error message, and the assembled front — every field a Result has, so
// a decoded entry has a computed Result's shape; a run's error comes
// back as its message (BatchResult.CacheHit tells the two apart).
type wireResult struct {
	V      int              `json:"v"`
	Bounds bounds.Record    `json:"bounds"`
	Runs   []wireRun        `json:"runs"`
	Front  []wireFrontPoint `json:"front,omitempty"`
}

type wireRun struct {
	Algorithm Algorithm     `json:"alg"`
	Tie       core.TieBreak `json:"tie"`
	Delta     float64       `json:"delta"`
	Cmax      model.Time    `json:"cmax"`
	Mmax      model.Mem     `json:"mmax"`
	Err       string        `json:"err,omitempty"`
}

type wireFrontPoint struct {
	Cmax     model.Time `json:"cmax"`
	Mmax     model.Mem  `json:"mmax"`
	RunIndex int        `json:"run"`
}

// refEncodeResult is the former encodeResult: json.Marshal of the wire
// struct.
func refEncodeResult(res *Result) ([]byte, error) {
	wr := wireResult{V: wireVersion, Bounds: res.Bounds, Runs: make([]wireRun, len(res.Runs))}
	for i, r := range res.Runs {
		w := wireRun{
			Algorithm: r.Algorithm,
			Tie:       r.Tie,
			Delta:     r.Delta,
			Cmax:      r.Value.Cmax,
			Mmax:      r.Value.Mmax,
		}
		if r.Err != nil {
			w.Err = r.Err.Error()
		}
		wr.Runs[i] = w
	}
	for _, p := range res.Front {
		wr.Front = append(wr.Front, wireFrontPoint{Cmax: p.Value.Cmax, Mmax: p.Value.Mmax, RunIndex: p.RunIndex})
	}
	return json.Marshal(wr)
}

// refDecodeResult is the former decodeResult: a reflective Unmarshal,
// the version check and the witness range check.
func refDecodeResult(data []byte) (*Result, error) {
	var wr wireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, fmt.Errorf("engine: decoding cached result: %w", err)
	}
	if wr.V != wireVersion {
		return nil, fmt.Errorf("engine: cached result version %d, want %d", wr.V, wireVersion)
	}
	res := &Result{Bounds: wr.Bounds, Runs: make([]Run, len(wr.Runs))}
	for i, w := range wr.Runs {
		r := Run{
			Algorithm: w.Algorithm,
			Tie:       w.Tie,
			Delta:     w.Delta,
			Value:     model.Value{Cmax: w.Cmax, Mmax: w.Mmax},
		}
		if w.Err != "" {
			r.Err = errors.New(w.Err)
		}
		res.Runs[i] = r
	}
	for _, p := range wr.Front {
		if p.RunIndex < 0 || p.RunIndex >= len(res.Runs) {
			return nil, fmt.Errorf("engine: cached front witness %d out of range [0,%d)", p.RunIndex, len(res.Runs))
		}
		res.Front = append(res.Front, FrontPoint{Value: model.Value{Cmax: p.Cmax, Mmax: p.Mmax}, RunIndex: p.RunIndex})
	}
	return res, nil
}

// refCheck is checkResult stated directly.
func refCheck(res *Result) error {
	b := res.Bounds
	if b.CmaxLB != max(b.WorkOverM, b.MaxP, b.CriticalPath) {
		return errors.New("CmaxLB inconsistent")
	}
	if b.MmaxLB != max(b.MemOverM, b.MaxS) {
		return errors.New("MmaxLB inconsistent")
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			continue
		}
		if r.Value.Cmax < b.CmaxLB || r.Value.Mmax < b.MmaxLB {
			return errors.New("run below a lower bound")
		}
		if r.Algorithm != AlgRLS {
			continue
		}
		cap, err := core.MemCap(r.Delta, b.MmaxLB)
		if err != nil {
			return err
		}
		if r.Value.Mmax > cap {
			return errors.New("RLS run above the Lemma 4 cap")
		}
	}
	if !reflect.DeepEqual(res.Front, AssembleFront(res.Runs)) {
		return errors.New("front differs from AssembleFront(runs)")
	}
	return nil
}
