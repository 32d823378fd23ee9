package serve

// Differential fuzzing of the item decoder. Both stream shapes —
// DecodeItems over concatenated documents and DecodeJSONLItems over
// lines — are run on the same bytes through the single-pass decoder
// and through the encoding/json reference (items_ref_test.go), and
// must agree on every item: accept or reject, poison or item-level,
// source label, validation message, and the decoded m, tasks (names
// included) and edges. The concatenated stream is also read one byte
// per Read, which must not change a single item or message. The only disagreements allowed are the two
// rejections the new decoder adds on purpose: an edge that is not an
// exact [pred, succ] pair, and a JSONL line with content after its
// document.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"storagesched/internal/engine"
)

// decodeQuirks are the documents whose encoding/json semantics the
// decoder keeps bug for bug, plus the cases it now rejects.
var decodeQuirks = []string{
	`{"M":2,"TASKS":[{"ID":0,"P":3,"S":1,"NAME":"a"}]}`,       // case-folded keys
	`{"m":2,"taſks":[{"p":3,"ſ":1}]}`,                         // ſ folds to s
	`{"m":1,"m":2,"tasks":[{"p":1,"s":0}],"tasks":[{"s":5}]}`, // duplicates decode in place
	`{"m":2,"tasks":[{"p":1},{"p":2},{"p":3}],"tasks":[{"p":4}],"tasks":[null,null,null]}`,
	`{"m":2,"x":{"y":[1,2,{"z":null}]},"tasks":[{"p":1,"s":1,"w":true}]}`, // unknown keys
	`{"m":null,"tasks":null}`,
	`{"m":2,"tasks":[null,{"p":1,"s":null,"name":null}]}`,
	`{"item":null}`,
	`{"source":"named","item":{"m":1,"tasks":[{"p":1,"s":1}]}}`,
	`{"source":5,"item":{"m":1,"tasks":[]}}`,
	`{"source":"a","source":7,"item":{"m":1,"tasks":[]},"m":"ignored"}`,
	`{"source":"a","source":null,"item":{"m":1,"tasks":[]}}`,
	`{"item":{"m":1,"tasks":[]},"item":{"m":2,"tasks":[],"edges":[]}}`,
	`{"item":{"item":{"m":1},"m":1,"tasks":[]}}`,
	`{"m":1,"tasks":[{"p":1,"s":0}],"edges":null}`,
	`{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[0,1]],"edges":[[null,1]]}`,
	`{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[1]]}`,
	`{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[0,1,7]]}`,
	`{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[]]}`,
	`{"m":2,"tasks":[{"p":1,"s":0},{"p":1,"s":0}],"edges":[[0,1]],"edges":[null]}`,
	`{"m":1,"tasks":[{"p":1,"s":0,"name":"tab\tAé😀\"q\\"}]}`,
	"{\"m\":1,\"tasks\":[{\"p\":1,\"s\":0,\"name\":\"bad\xff\xfeutf8\"}]}",
	`{"m":1,"tasks":[{"p":1,"s":0,"name":"\ud800 lone"}]}`,
	`{"m":1,"tasks":[{"p":9223372036854775807,"s":0}]}`,
	`{"m":1,"tasks":[{"p":9223372036854775808,"s":0}]}`,
	`{"m":1,"tasks":[{"p":1,"s":-9223372036854775808}]}`,
	`{"m":1,"tasks":[{"p":1,"s":-9223372036854775809}]}`,
	`{"m":1.0,"tasks":[]}`,
	`{"m":1e2,"tasks":[]}`,
	`{"m":-0,"tasks":[{"p":1,"s":0}]}`,
	`{"m":"2","tasks":[{"p":true}]}`,
	`[1,2]`, `null`, `"str"`, `12`, `truefalse`, `01`,
	`{"m":1,"tasks":[]}{"m":2,"tasks":[]}`,
	`{"m":1,"tasks":[]} garbage`,
	`{"m":1,"tasks":[{"p":1,"s":0}]}` + "\n{broken\n" + `{"m":2}`,
	`{"m":1,"tasks":[],}`, `{"m":1 "tasks":[]}`, `{"m":1,"tasks":[1,]}`, `{"m":`, `[[[[`,
	`{"m":1,"tasks":[{"p":1,"s":0}],"edges":[[0,0]]}`,
}

// decoded is one item of a drained stream.
type decoded struct {
	item   engine.BatchItem
	source string
}

func drain(seq func(func(engine.BatchItem, string) bool)) []decoded {
	var out []decoded
	seq(func(it engine.BatchItem, src string) bool {
		out = append(out, decoded{it, src})
		return true
	})
	return out
}

func FuzzDecodeItems(f *testing.F) {
	names, err := filepath.Glob(filepath.Join("..", "..", "cmd", "schedcli", "testdata", "smoke", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	var all [][]byte
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			f.Fatal(err)
		}
		all = append(all, compact.Bytes())
	}
	f.Add(bytes.Join(all, []byte("\n")))
	for _, q := range decodeQuirks {
		f.Add([]byte(q))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		compareDecoders(t, data, false)
		compareDecoders(t, data, true)
	})
}

// compareDecoders runs one stream shape through both decoders and
// fails on any disagreement that is not a deliberate rejection.
func compareDecoders(t *testing.T, data []byte, jsonl bool) {
	t.Helper()
	var got, want []decoded
	if jsonl {
		got = drain(DecodeJSONLItems("fuzz", bytes.NewReader(data), nil))
		want = drain(refDecodeJSONLItems("fuzz", bytes.NewReader(data)))
	} else {
		got = drain(DecodeItems("fuzz", bytes.NewReader(data), nil))
		want = drain(refDecodeItems("fuzz", bytes.NewReader(data)))
		// Refilling at every byte boundary must not change anything.
		slow := drain(DecodeItems("fuzz", iotest.OneByteReader(bytes.NewReader(data)), nil))
		if len(slow) != len(got) {
			t.Fatalf("one byte per read: %d items, %d at once\ninput: %q", len(slow), len(got), data)
		}
		for i := range slow {
			if slow[i].source != got[i].source || fmt.Sprint(slow[i].item.Err) != fmt.Sprint(got[i].item.Err) {
				t.Fatalf("one byte per read: item %d (%q, %v), at once (%q, %v)\ninput: %q",
					i, slow[i].source, slow[i].item.Err, got[i].source, got[i].item.Err, data)
			}
			if got[i].item.Err == nil {
				compareItems(t, slow[i].item, got[i].item, data)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("jsonl=%v: %d items, reference %d\ninput: %q", jsonl, len(got), len(want), data)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.source != w.source {
			t.Fatalf("jsonl=%v item %d: source %q, reference %q\ninput: %q", jsonl, i, g.source, w.source, data)
		}
		if g.item.Err != nil && deliberateRejection(g.item.Err.Error(), rawDoc(data, i, jsonl), jsonl) {
			continue
		}
		if (g.item.Err == nil) != (w.item.Err == nil) {
			t.Fatalf("jsonl=%v item %d (%s): err %v, reference %v\ninput: %q", jsonl, i, g.source, g.item.Err, w.item.Err, data)
		}
		if g.item.Err != nil {
			compareErrors(t, g.item.Err.Error(), w.item.Err.Error(), data)
			continue
		}
		compareItems(t, g.item, w.item, data)
	}
}

// deliberateRejection reports whether the new decoder's rejection of
// a document is one of the two intended ones, checking that the
// document really has that defect. The reference accepted such a
// document or rejected it with a misleading message.
func deliberateRejection(msg string, raw []byte, jsonl bool) bool {
	switch {
	case strings.Contains(msg, "endpoints, want 2"):
		payload, _, _ := refPayload(raw, "")
		var doc struct {
			Edges []json.RawMessage `json:"edges"`
		}
		_ = json.Unmarshal(payload, &doc)
		for _, e := range doc.Edges {
			var pair []json.RawMessage
			if json.Unmarshal(e, &pair) != nil || len(pair) != 2 {
				return true
			}
		}
	case jsonl && strings.Contains(msg, "after top-level value"):
		return raw != nil && !json.Valid(raw)
	}
	return false
}

// rawDoc returns the i-th document of a concatenated stream, or the
// i-th non-blank trimmed line of a JSONL stream.
func rawDoc(data []byte, i int, jsonl bool) []byte {
	if jsonl {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(strings.TrimSuffix(line, "\r"))
			if line == "" {
				continue
			}
			if i == 0 {
				return []byte(line)
			}
			i--
		}
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for ; ; i-- {
		var raw json.RawMessage
		if dec.Decode(&raw) != nil {
			return nil
		}
		if i == 0 {
			return raw
		}
	}
}

// compareErrors holds poison and validation errors to the reference:
// the poison prefix must match, and a rejection that did not come from
// encoding/json's own syntax or type wording must be byte-identical.
func compareErrors(t *testing.T, got, want string, data []byte) {
	t.Helper()
	gotPoison := strings.HasPrefix(got, "fuzz value ")
	if wantPoison := strings.HasPrefix(want, "fuzz value "); gotPoison != wantPoison {
		t.Fatalf("poison mismatch: %q, reference %q\ninput: %q", got, want, data)
	}
	if gotPoison {
		if g, w := strings.SplitN(got, ":", 2)[0], strings.SplitN(want, ":", 2)[0]; g != w {
			t.Fatalf("poison at %q, reference %q\ninput: %q", g, w, data)
		}
		return
	}
	if strings.Contains(want, ": decoding ") {
		if !strings.Contains(got, ": decoding ") {
			t.Fatalf("decode error %q, reference %q\ninput: %q", got, want, data)
		}
		return
	}
	if got != want {
		t.Fatalf("error %q, reference %q\ninput: %q", got, want, data)
	}
}

// compareItems checks two accepted items decode to the same values.
func compareItems(t *testing.T, got, want engine.BatchItem, data []byte) {
	t.Helper()
	if (got.Graph == nil) != (want.Graph == nil) {
		t.Fatalf("kind: graph=%v, reference graph=%v\ninput: %q", got.Graph != nil, want.Graph != nil, data)
	}
	if want.Graph != nil {
		g, w := got.Graph, want.Graph
		if g.M != w.M || !slices.Equal(g.P, w.P) || !slices.Equal(g.S, w.S) {
			t.Fatalf("graph m/p/s (%d %v %v), reference (%d %v %v)\ninput: %q", g.M, g.P, g.S, w.M, w.P, w.S, data)
		}
		for u := 0; u < w.N(); u++ {
			if !slices.Equal(g.Succs(u), w.Succs(u)) {
				t.Fatalf("node %d successors %v, reference %v\ninput: %q", u, g.Succs(u), w.Succs(u), data)
			}
		}
		return
	}
	g, w := got.Instance, want.Instance
	if g.M != w.M || !slices.Equal(g.Tasks, w.Tasks) {
		t.Fatalf("instance (%d %+v), reference (%d %+v)\ninput: %q", g.M, g.Tasks, w.M, w.Tasks, data)
	}
}

// TestDecodeItemsMatchesReference replays the quirk corpus through
// the differential check on every run, not only under -fuzz.
func TestDecodeItemsMatchesReference(t *testing.T) {
	for _, q := range decodeQuirks {
		compareDecoders(t, []byte(q), false)
		compareDecoders(t, []byte(q), true)
	}
}

// TestDecodeItemsStreams: an item is yielded as soon as its document
// is complete — over a pipe, item 1 arrives while the writer is still
// open — which is what lets schedd start sweeping before the request
// body ends.
func TestDecodeItemsStreams(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	next, stop := iter.Pull2(DecodeItems("pipe", pr, nil))
	defer stop()
	go func() {
		// Write item 1 and keep the pipe open until the test is done.
		_, _ = io.WriteString(pw, docInstA+"\n")
	}()
	it, src, ok := next()
	if !ok || it.Err != nil || it.Instance == nil || src != "pipe:1" {
		t.Fatalf("first item = (%+v, %q, %v), want a decoded pipe:1 before the writer closes", it, src, ok)
	}
	go func() {
		_, _ = io.WriteString(pw, docGraph)
		pw.Close()
	}()
	it, src, ok = next()
	if !ok || it.Err != nil || it.Graph == nil || src != "pipe:2" {
		t.Fatalf("second item = (%+v, %q, %v), want the graph pipe:2", it, src, ok)
	}
	if _, _, ok = next(); ok {
		t.Fatal("stream yielded past the closed writer")
	}
}
