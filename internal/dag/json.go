package dag

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"

	"storagesched/internal/model"
)

// graphJSON is the on-disk form of a Graph: the instance fields plus
// an edge list. It extends the instance wire format, so a graph file
// is an instance file with an "edges" array (reading goes through
// model.Decoder and FromDoc):
//
//	{"m": 2, "tasks": [{"id":0,"p":4,"s":1}, ...], "edges": [[0,1], ...]}
type graphJSON struct {
	M     int          `json:"m"`
	Tasks []model.Task `json:"tasks"`
	Edges [][2]int     `json:"edges"`
}

// WriteJSON encodes the graph to w with indentation.
func (g *Graph) WriteJSON(w io.Writer) error {
	gj := graphJSON{M: g.M, Tasks: make([]model.Task, g.N()), Edges: [][2]int{}}
	for i := range gj.Tasks {
		gj.Tasks[i] = model.Task{ID: i, P: g.P[i], S: g.S[i]}
	}
	for u := range g.succs {
		for _, v := range g.succs[u] {
			gj.Edges = append(gj.Edges, [2]int{u, v})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(gj)
}

// ReadGraphJSON decodes the first document of r as a task DAG and
// validates it (see FromDoc); anything after that document is ignored.
func ReadGraphJSON(r io.Reader) (*Graph, error) {
	var doc model.Doc
	if err := model.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dag: decoding graph: %w", err)
	}
	return FromDoc(&doc)
}

// FromDoc builds a task DAG from a decoded document and validates it:
// every edge is a [pred, succ] pair of node indexes in range and not a
// self-loop, processing times are positive and the graph is acyclic.
// Malformed edges are reported as errors, never panics — the format is
// consumed by CLI tools and schedd fed untrusted input.
func FromDoc(doc *model.Doc) (*Graph, error) {
	if err := cmp.Or(doc.Err, doc.EdgeErr); err != nil {
		return nil, fmt.Errorf("dag: decoding graph: %w", err)
	}
	n := len(doc.Tasks)
	// Same ID contract as model.Doc.Instance: files with implicit IDs
	// (all zero) are positional; any nonzero ID makes the file
	// explicit, and every ID must then match its index — the edge list
	// below refers to tasks by position, so a reordered file would
	// otherwise decode into a silently wrong DAG.
	implicit := true
	for _, t := range doc.Tasks {
		if t.ID != 0 {
			implicit = false
			break
		}
	}
	if !implicit {
		for i, t := range doc.Tasks {
			if t.ID != i {
				return nil, fmt.Errorf("dag: task %d has ID %d, want %d (edges are positional)", i, t.ID, i)
			}
		}
	}
	g := &Graph{
		M:     doc.M,
		P:     make([]model.Time, n),
		S:     make([]model.Mem, n),
		preds: make([][]int, n),
		succs: make([][]int, n),
	}
	for i, t := range doc.Tasks {
		g.P[i] = t.P
		g.S[i] = t.S
	}
	for k, e := range doc.Edges {
		if b := doc.BadEdge; b != nil && b.Index == k {
			return nil, fmt.Errorf("dag: edge %d has %d endpoints, want 2", k, b.Len)
		}
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("dag: edge %d (%d -> %d) out of range [0, %d)", k, u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("dag: edge %d is a self-loop on node %d", k, u)
		}
	}
	g.addEdges(doc.Edges)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
