package dag

import (
	"bytes"
	"strings"
	"testing"

	"storagesched/internal/model"
)

func TestGraphJSONRoundTrip(t *testing.T) {
	g := New(3, []model.Time{4, 2, 7, 1}, []model.Mem{1, 0, 5, 2})
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)

	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadGraphJSON(&buf)
	if err != nil {
		t.Fatalf("ReadGraphJSON: %v", err)
	}
	if got.M != g.M || got.N() != g.N() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: m=%d n=%d e=%d, want m=%d n=%d e=%d",
			got.M, got.N(), got.NumEdges(), g.M, g.N(), g.NumEdges())
	}
	for i := 0; i < g.N(); i++ {
		if got.P[i] != g.P[i] || got.S[i] != g.S[i] {
			t.Errorf("node %d: (p,s) = (%d,%d), want (%d,%d)", i, got.P[i], got.S[i], g.P[i], g.S[i])
		}
	}
	for _, e := range [][2]int{{0, 2}, {1, 2}, {2, 3}} {
		if !got.HasEdge(e[0], e[1]) {
			t.Errorf("edge %v lost in round trip", e)
		}
	}
}

func TestGraphJSONEdgelessRoundTrip(t *testing.T) {
	g := New(2, []model.Time{1, 2}, []model.Mem{3, 4})
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The edges array must be present (not null) so the format is
	// self-describing even for independent tasks.
	if !strings.Contains(buf.String(), `"edges": []`) {
		t.Errorf("edgeless graph encodes without an edges array:\n%s", buf.String())
	}
	got, err := ReadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 0 || got.N() != 2 {
		t.Errorf("round trip: n=%d e=%d", got.N(), got.NumEdges())
	}
}

func TestReadGraphJSONErrors(t *testing.T) {
	cases := map[string]string{
		"not json":          `{`,
		"edge out of range": `{"m":2,"tasks":[{"p":1,"s":0}],"edges":[[0,5]]}`,
		"negative node":     `{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[-1,0]]}`,
		"self-loop":         `{"m":2,"tasks":[{"p":1,"s":0}],"edges":[[0,0]]}`,
		"cycle":             `{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[0,1],[1,0]]}`,
		"zero p":            `{"m":2,"tasks":[{"p":0,"s":0}],"edges":[]}`,
		"negative s":        `{"m":2,"tasks":[{"p":1,"s":-1}],"edges":[]}`,
		"no processors":     `{"m":0,"tasks":[{"p":1,"s":0}],"edges":[]}`,
	}
	for name, doc := range cases {
		if _, err := ReadGraphJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %s", name, doc)
		}
	}
}

// TestReadGraphJSONEdgeArity: an edge must be exactly [pred, succ].
// A reflective [2]int decode used to truncate or zero-fill the others
// into a wrong DAG ([[1]] became 1 -> 0), a silently accepted one
// ([[0,1,7]] became 0 -> 1) or a misleading self-loop ([[]]).
func TestReadGraphJSONEdgeArity(t *testing.T) {
	const tasks = `{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0},{"p":1,"s":0}],"edges":`
	cases := map[string]string{
		`[[1]]`:             "dag: edge 0 has 1 endpoints, want 2",
		`[[0,1],[0,1,7]]`:   "dag: edge 1 has 3 endpoints, want 2",
		`[[]]`:              "dag: edge 0 has 0 endpoints, want 2",
		`[[0,2],null]`:      "dag: edge 1 has 0 endpoints, want 2",
		`[[0,1],[2],[1,2]]`: "dag: edge 1 has 1 endpoints, want 2",
	}
	for edges, want := range cases {
		_, err := ReadGraphJSON(strings.NewReader(tasks + edges + "}"))
		if err == nil || err.Error() != want {
			t.Errorf("edges %s: err = %v, want %q", edges, err, want)
		}
	}
	// A null endpoint still leaves its slot unset, as it always has.
	g, err := ReadGraphJSON(strings.NewReader(tasks + `[[null,1]]}`))
	if err != nil || !g.HasEdge(0, 1) {
		t.Errorf("[[null,1]]: err = %v, want the arc 0 -> 1", err)
	}
}

// TestReadGraphJSONIDContract pins the ID semantics shared with
// ReadInstanceJSON: all-zero IDs are positional, any nonzero ID makes
// the file explicit and a reordered file is an error — the edge list
// is positional, so accepting it would decode a silently wrong DAG.
func TestReadGraphJSONIDContract(t *testing.T) {
	implicit := `{"m":2,"tasks":[{"p":1,"s":0},{"p":2,"s":1}],"edges":[[0,1]]}`
	g, err := ReadGraphJSON(strings.NewReader(implicit))
	if err != nil {
		t.Fatalf("implicit IDs rejected: %v", err)
	}
	if !g.HasEdge(0, 1) {
		t.Error("implicit-ID graph lost its edge")
	}
	explicit := `{"m":2,"tasks":[{"id":0,"p":1,"s":0},{"id":1,"p":2,"s":1}],"edges":[[0,1]]}`
	if _, err := ReadGraphJSON(strings.NewReader(explicit)); err != nil {
		t.Fatalf("explicit in-order IDs rejected: %v", err)
	}
	reordered := `{"m":2,"tasks":[{"id":1,"p":1,"s":0},{"id":0,"p":2,"s":1}],"edges":[[0,1]]}`
	if _, err := ReadGraphJSON(strings.NewReader(reordered)); err == nil {
		t.Error("reordered task IDs accepted; edges would bind to the wrong tasks")
	}
}
