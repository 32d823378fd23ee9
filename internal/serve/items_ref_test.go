package serve

// The encoding/json item decoder the single-pass model.Decoder
// replaced, kept as the differential reference for FuzzDecodeItems and
// the decode tests: each document is framed by a json.Decoder, sniffed
// by a probe Unmarshal and decoded again reflectively. Its verdicts are
// the contract the new decoder keeps, except for the two rejections it
// adds on purpose (edges that are not pairs, JSONL lines with trailing
// content).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"strings"

	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/model"
)

// refProbe sniffs a document's top-level keys: an envelope carries
// "item", a graph carries "edges", anything else is an instance.
type refProbe struct {
	Source *string         `json:"source"`
	Item   json.RawMessage `json:"item"`
	Edges  json.RawMessage `json:"edges"`
}

type refInstanceJSON struct {
	M     int          `json:"m"`
	Tasks []model.Task `json:"tasks"`
}

type refGraphJSON struct {
	M     int          `json:"m"`
	Tasks []model.Task `json:"tasks"`
	Edges [][2]int     `json:"edges"`
}

func refImplicitIDs(tasks []model.Task) bool {
	for _, t := range tasks {
		if t.ID != 0 {
			return false
		}
	}
	return true
}

func refReadInstance(raw []byte) (*model.Instance, error) {
	var ij refInstanceJSON
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&ij); err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", err)
	}
	in := &model.Instance{M: ij.M, Tasks: ij.Tasks}
	if refImplicitIDs(in.Tasks) {
		for i := range in.Tasks {
			in.Tasks[i].ID = i
		}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

func refReadGraph(raw []byte) (*dag.Graph, error) {
	var gj refGraphJSON
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&gj); err != nil {
		return nil, fmt.Errorf("dag: decoding graph: %w", err)
	}
	n := len(gj.Tasks)
	if !refImplicitIDs(gj.Tasks) {
		for i, t := range gj.Tasks {
			if t.ID != i {
				return nil, fmt.Errorf("dag: task %d has ID %d, want %d (edges are positional)", i, t.ID, i)
			}
		}
	}
	p := make([]model.Time, n)
	s := make([]model.Mem, n)
	for i, t := range gj.Tasks {
		p[i], s[i] = t.P, t.S
	}
	g := dag.New(gj.M, p, s)
	for k, e := range gj.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("dag: edge %d (%d -> %d) out of range [0, %d)", k, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("dag: edge %d is a self-loop on node %d", k, u)
		}
		g.AddEdge(u, v)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// refPayload resolves a raw document to its payload, its kind and its
// source label the way the probe did.
func refPayload(raw []byte, source string) (payload []byte, graph bool, label string) {
	var probe refProbe
	_ = json.Unmarshal(raw, &probe)
	if probe.Item != nil {
		if probe.Source != nil && *probe.Source != "" {
			source = *probe.Source
		}
		raw = probe.Item
		probe = refProbe{}
		_ = json.Unmarshal(raw, &probe)
	}
	return raw, probe.Edges != nil, source
}

func refDecodeOne(raw []byte, source string) (engine.BatchItem, string) {
	raw, graph, source := refPayload(raw, source)
	item := engine.BatchItem{}
	var err error
	if graph {
		item.Graph, err = refReadGraph(raw)
	} else {
		item.Instance, err = refReadInstance(raw)
	}
	if err != nil {
		item.Err = fmt.Errorf("%s: %w", source, err)
	}
	return item, source
}

func refDecodeItems(label string, r io.Reader) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		dec := json.NewDecoder(r)
		for k := 1; ; k++ {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				if err != io.EOF {
					yield(engine.BatchItem{Err: fmt.Errorf("%s value %d: %w", label, k, err)},
						fmt.Sprintf("%s:%d", label, k))
				}
				return
			}
			if !yield(refDecodeOne(raw, fmt.Sprintf("%s:%d", label, k))) {
				return
			}
		}
	}
}

func refDecodeJSONLItems(label string, r io.Reader) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			if !yield(refDecodeOne([]byte(text), fmt.Sprintf("%s:%d", label, lineNo))) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(engine.BatchItem{Err: fmt.Errorf("%s: %w", label, err)}, label)
		}
	}
}
