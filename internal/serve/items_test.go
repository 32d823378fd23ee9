package serve

import (
	"strings"
	"testing"

	"storagesched/internal/engine"
)

// collect drains a decoded sequence into parallel slices.
func collect(seq func(func(engine.BatchItem, string) bool)) (items []engine.BatchItem, sources []string) {
	seq(func(it engine.BatchItem, src string) bool {
		items = append(items, it)
		sources = append(sources, src)
		return true
	})
	return
}

// TestDecodeItemsKinds: instances, graphs (selected by "edges") and
// envelopes (selected by "item", optionally naming their source) all
// decode from one concatenated stream, with positional labels filling
// in for anonymous documents.
func TestDecodeItemsKinds(t *testing.T) {
	in := docInstA + "\n" +
		docGraph + "\n" +
		`{"source":"named.json","item":` + docInstB + "}\n" +
		`{"item":` + docGraph + "}\n"
	items, sources := collect(DecodeItems("body", strings.NewReader(in), nil))
	if len(items) != 4 {
		t.Fatalf("%d items, want 4", len(items))
	}
	wantSources := []string{"body:1", "body:2", "named.json", "body:4"}
	for i, want := range wantSources {
		if sources[i] != want {
			t.Errorf("item %d source = %q, want %q", i, sources[i], want)
		}
	}
	for i, wantGraph := range []bool{false, true, false, true} {
		if items[i].Err != nil {
			t.Errorf("item %d: unexpected error %v", i, items[i].Err)
		}
		if gotGraph := items[i].Graph != nil; gotGraph != wantGraph {
			t.Errorf("item %d: graph=%v, want %v", i, gotGraph, wantGraph)
		}
	}
}

// TestDecodeItemsPoisoning: a syntactically broken document ends the
// stream with one error item (no line boundary to resynchronize on),
// while a well-formed document that fails validation rides its error
// and the stream continues.
func TestDecodeItemsPoisoning(t *testing.T) {
	in := docInstA + "\n" + `{"m":0,"tasks":[]}` + "\n" + docInstB + "\n" + "{broken\n" + docGraph + "\n"
	items, sources := collect(DecodeItems("stdin", strings.NewReader(in), nil))
	if len(items) != 4 {
		t.Fatalf("%d items, want 4 (two good, one invalid, one poison)", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Errorf("good items carried errors: %v, %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Error("invalid instance (m=0) decoded without error")
	}
	last := items[3]
	if last.Err == nil || !strings.Contains(last.Err.Error(), "stdin value 4:") {
		t.Errorf("poison item error = %v, want 'stdin value 4: ...'", last.Err)
	}
	if sources[3] != "stdin:4" {
		t.Errorf("poison source = %q, want stdin:4", sources[3])
	}
}

// TestDecodeJSONLItemsIsolation: with line framing, a bad line fails
// alone — subsequent lines still decode, and labels count physical
// lines (blank lines skipped but counted).
//
// A line holds exactly one document: a second document or trailing
// garbage on it fails that line alone, naming its line number, rather
// than silently dropping what follows the first document.
func TestDecodeJSONLItemsIsolation(t *testing.T) {
	in := docInstA + "\n\n{broken\n" + docInstB + "\n" +
		docInstA + docInstB + "\n" + docInstA + " garbage\n" + docGraph + "\n"
	items, sources := collect(DecodeJSONLItems("batch.jsonl", strings.NewReader(in), nil))
	if len(items) != 6 {
		t.Fatalf("%d items, want 6", len(items))
	}
	for _, i := range []int{0, 2, 5} {
		if items[i].Err != nil {
			t.Errorf("good line %s carried an error: %v", sources[i], items[i].Err)
		}
	}
	for _, i := range []int{1, 3, 4} {
		if items[i].Err == nil {
			t.Errorf("bad line %s decoded without error", sources[i])
		} else if prefix := sources[i] + ": "; !strings.HasPrefix(items[i].Err.Error(), prefix) {
			t.Errorf("bad line error %q does not name %s", items[i].Err, sources[i])
		}
	}
	want := []string{"batch.jsonl:1", "batch.jsonl:3", "batch.jsonl:4", "batch.jsonl:5", "batch.jsonl:6", "batch.jsonl:7"}
	for i, w := range want {
		if sources[i] != w {
			t.Errorf("source %d = %q, want %q", i, sources[i], w)
		}
	}
}
