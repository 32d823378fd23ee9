package model

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestDecoderErrors pins the decoder's own error wording: a syntax
// error carries its byte offset, a type error names its field and
// offset, and input that ends inside a document is io.ErrUnexpectedEOF.
func TestDecoderErrors(t *testing.T) {
	const prefix = "model: decoding instance: "
	cases := []struct{ in, want string }{
		{`{"m":1,"tasks":[{"p":1.5}]}`, "tasks[0].p at byte 21: want an integer, got number 1.5"},
		{`{"m":1e2}`, "m at byte 5: want an integer, got number 1e2"},
		{`{"m":"2"}`, "m at byte 5: want an integer, got string"},
		{`{"m":1,"tasks":[{"p":9223372036854775808}]}`, "tasks[0].p at byte 21: want an integer, got number 9223372036854775808"},
		{`{"m":1,"tasks":[{"name":7}]}`, "tasks[0].name at byte 24: want a string, got number 7"},
		{`{"m":1,"tasks":{}}`, "tasks at byte 15: want an array, got object"},
		{`[1]`, "document at byte 0: want an object, got array"},
		{`{"m":1,]`, "syntax error at byte 7: invalid character ']' looking for beginning of object key string"},
		{`{"m":1 "tasks":[]}`, "syntax error at byte 7: invalid character '\"' after object key:value pair"},
		{"{\"m\":\"a\x01\"}", "syntax error at byte 7: invalid character '\\x01' in string literal"},
		{`{"m":1`, "unexpected EOF"},
		// Type errors name the field and the kind that was found.
		{`{"m":true}`, "m at byte 5: want an integer, got bool"},
		{`{"m":1E-2}`, "m at byte 5: want an integer, got number 1E-2"},
		{`{"m":-9223372036854775809}`, "m at byte 5: want an integer, got number -9223372036854775809"},
		{`{"m":1,"tasks":[1]}`, "tasks[0] at byte 16: want an object, got number 1"},
		{`{"m":1,"tasks":"x"}`, "tasks at byte 15: want an array, got string"},
		{`{"m":1,"tasks":[{"p":"x"}]}`, "tasks[0].p at byte 21: want an integer, got string"},
		{`{"m":1,"tasks":[{"id":[1]}]}`, "tasks[0].id at byte 22: want an integer, got array"},
		// A malformed edge list is an unknown key to an instance read,
		// so the type error that fails the document is m's.
		{`{"edges":[1],"m":"x"}`, "m at byte 17: want an integer, got string"},
		// Syntax errors inside strings, numbers and literals.
		{`{"m":1,"x":"\q"}`, "syntax error at byte 13: invalid character 'q' in string escape code"},
		{`{"m":"\u12x4"}`, "syntax error at byte 10: invalid character 'x' in \\u hexadecimal character escape"},
		{`{"m":-}`, "syntax error at byte 6: invalid character '}' in numeric literal"},
		{`{"m":1.}`, "syntax error at byte 7: invalid character '}' in numeric literal"},
		{`{"m":1e+}`, "syntax error at byte 8: invalid character '}' in numeric literal"},
		{"{\"m\":1,\n\"x\":[[{\"y\":-x}]]}", "syntax error at byte 20: invalid character 'x' in numeric literal"},
		{`{"m":tru}`, "syntax error at byte 8: invalid character '}' in literal true (expecting 'e')"},
		{`{"m":1,"x":[1 2]}`, "syntax error at byte 14: invalid character '2' after array element"},
		{`{"m" 1}`, "syntax error at byte 5: invalid character '1' after object key"},
		{`{"m":1,"x":@}`, "syntax error at byte 11: invalid character '@' looking for beginning of value"},
		// Nesting deeper than encoding/json allows is a syntax error,
		// not a deep recursion.
		{`{"x":` + strings.Repeat("[", maxDepth) + `}`, "syntax error at byte 10004: exceeded max depth"},
		// Input that ends inside a token.
		{`{"m":"abc`, "unexpected EOF"},
		{`{"m":"\`, "unexpected EOF"},
		{`{"m":"\u12`, "unexpected EOF"},
		{`{"m":1.`, "unexpected EOF"},
		{`{"m":-`, "unexpected EOF"},
		{`{"m":nul`, "unexpected EOF"},
		{`{"m":1,"tasks":[{"p":1}`, "unexpected EOF"},
	}
	for _, c := range cases {
		_, err := ReadInstanceJSON(strings.NewReader(c.in))
		if err == nil || err.Error() != prefix+c.want {
			t.Errorf("%s: err = %v, want %q", c.in, err, prefix+c.want)
		}
	}
	if _, err := ReadInstanceJSON(strings.NewReader(`{"m":1`)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated document: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestDecoderStream: documents are framed back to back with stream
// offsets, whitespace-only input ends cleanly, and End rejects content
// after the last document.
func TestDecoderStream(t *testing.T) {
	dec := NewDecoder(strings.NewReader(" {\"m\":1}\n\t{\"m\":2} {\"m\":x}"))
	var doc Doc
	for want := 1; want <= 2; want++ {
		if err := dec.Decode(&doc); err != nil || doc.M != want {
			t.Fatalf("document %d: m = %d, err = %v", want, doc.M, err)
		}
	}
	err := dec.Decode(&doc)
	var se *SyntaxError
	if !errors.As(err, &se) || se.Offset != 23 {
		t.Fatalf("third document: err = %v, want a syntax error at byte 23", err)
	}
	if err := NewDecoder(strings.NewReader(" \n")).Decode(&doc); err != io.EOF {
		t.Errorf("blank input: err = %v, want io.EOF", err)
	}
	dec = NewBytesDecoder([]byte(`{"m":1} {}`))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if err := dec.End(); err == nil || !strings.Contains(err.Error(), "after top-level value") {
		t.Errorf("End after a second document: err = %v", err)
	}
}

// docSummary renders what a decode produced, for table comparisons.
func docSummary(doc *Doc, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := fmt.Sprintf("m=%d tasks=%v", doc.M, doc.Tasks)
	switch {
	case doc.Tasks == nil:
		s = fmt.Sprintf("m=%d tasks=nil", doc.M)
	case len(doc.Tasks) == 0:
		s = fmt.Sprintf("m=%d tasks=[]", doc.M)
	}
	if doc.HasEdges {
		s += fmt.Sprintf(" edges=%v", doc.Edges)
	}
	if doc.BadEdge != nil {
		s += fmt.Sprintf(" bad=%+v", *doc.BadEdge)
	}
	if doc.Source != "" {
		s += " source=" + doc.Source
	}
	if doc.Err != nil {
		s += " err=" + doc.Err.Error()
	}
	if doc.EdgeErr != nil {
		s += " edgeErr=" + doc.EdgeErr.Error()
	}
	return s
}

// TestDecoderDocs pins the encoding/json semantics the decoder keeps
// (the differential fuzz in internal/serve checks them against the
// reflective decode): repeated keys decode again over the earlier
// value, null leaves a field unset, keys match case-insensitively,
// escapes unquote exactly, envelopes unwrap, and type errors are
// recorded without stopping the read. Each input is decoded from a
// byte slice and again one byte per Read, so every token also crosses
// a buffer refill.
func TestDecoderDocs(t *testing.T) {
	cases := []struct{ in, want string }{
		// Repeated keys: the last scalar wins; a repeated array decodes
		// over the earlier one in place, so a null element or a missing
		// field keeps what was there.
		{`{"m":1,"m":2}`, "m=2 tasks=nil"},
		{`{"tasks":[{"p":1},{"p":2}],"tasks":[{"s":5}]}`, "m=0 tasks=[{0 1 5 }]"},
		{`{"tasks":[{"p":1}],"tasks":[null,{"p":3}]}`, "m=0 tasks=[{0 1 0 } {0 3 0 }]"},
		{`{"edges":[[0,1],[2,3]],"edges":[[5]]}`, "m=0 tasks=nil edges=[[5 1]] bad={Index:0 Len:1}"},
		// null leaves a field unset; a null array is nil, [] is empty.
		{`{"m":null,"tasks":null,"edges":null}`, "m=0 tasks=nil edges=[]"},
		{`{"tasks":[]}`, "m=0 tasks=[]"},
		{`null`, "m=0 tasks=nil"},
		{`{"m":-0}`, "m=0 tasks=nil"},
		// Key matching: exact, else case-folded ("ſ" folds to "s"), and
		// escaped keys are unquoted first.
		{`{"M":3,"TASKS":[{"ID":4,"P":2,"S":1,"NAME":"x"}]}`, "m=3 tasks=[{4 2 1 x}]"},
		{`{"tasks":[{"ſ":4}]}`, "m=0 tasks=[{0 0 4 }]"},
		{`{"\u006d":5}`, "m=5 tasks=nil"},
		// Strings with escapes or non-ASCII bytes.
		{`{"tasks":[{"name":"a\"b\\c\/d\b\f\n\r\t\u00e9"},{"name":"é"},{"name":null}]}`,
			"m=0 tasks=[{0 0 0 a\"b\\c/d\b\f\n\r\té} {0 0 0 é} {0 0 0 }]"},
		// Unknown keys of every kind are validated and skipped.
		{`{"x":{"a":[1,-2.5e+3,true,false,null,"s",{}]},"m":1}`, "m=1 tasks=nil"},
		// Envelopes: the last item wins and the envelope's own fields,
		// type errors included, are ignored; a non-string source leaves
		// the label empty; without an item the document is the item.
		{`{"source":"s1","item":{"m":2}}`, "m=2 tasks=nil source=s1"},
		{`{"item":{"m":2},"source":null}`, "m=2 tasks=nil"},
		{`{"source":7,"item":{"m":1}}`, "m=1 tasks=nil"},
		{`{"m":5,"item":{"m":2},"item":{"m":3},"tasks":"bad"}`, "m=3 tasks=nil"},
		{`{"item":null,"m":1}`, "m=0 tasks=nil"},
		{`{"source":"x","m":4}`, "m=4 tasks=nil"},
		// Edges: pairs decode in order, the first non-pair is reported,
		// and edge type errors land on EdgeErr, not Err.
		{`{"m":2,"tasks":[],"edges":[[0,1],[1,2,3],null,[4]]}`,
			"m=2 tasks=[] edges=[[0 1] [1 2] [0 0] [4 0]] bad={Index:1 Len:3}"},
		{`{"edges":[[0,"a"]]}`, "m=0 tasks=nil edges=[[0 0]] edgeErr=edges[0][1] at byte 13: want an integer, got string"},
		{`{"edges":[5]}`, "m=0 tasks=nil edges=[[0 0]] edgeErr=edges[0] at byte 10: want an array, got number 5"},
		{`{"edges":{}}`, "m=0 tasks=nil edges=[] edgeErr=edges at byte 9: want an array, got object"},
		// A document that is not an object is a type error on Err.
		{`"str"`, "m=0 tasks=nil err=document at byte 0: want an object, got string"},
	}
	for _, c := range cases {
		var doc Doc
		err := NewBytesDecoder([]byte(c.in)).DecodeItem(&doc)
		if got := docSummary(&doc, err); got != c.want {
			t.Errorf("%s:\n got  %s\n want %s", c.in, got, c.want)
		}
		doc = Doc{}
		err = NewDecoder(iotest.OneByteReader(strings.NewReader(c.in))).DecodeItem(&doc)
		if got := docSummary(&doc, err); got != c.want {
			t.Errorf("%s (one byte per read):\n got  %s\n want %s", c.in, got, c.want)
		}
	}
}

// zeroReader never makes progress: every Read returns 0, nil.
type zeroReader struct{}

func (zeroReader) Read([]byte) (int, error) { return 0, nil }

// TestDecoderReaders: read errors surface as themselves (inside a
// document and after it), a reader that stops making progress is
// io.ErrNoProgress, and documents larger than a read buffer stream
// through the buffer's growth and compaction.
func TestDecoderReaders(t *testing.T) {
	boom := errors.New("decode_test: read failed")
	var doc Doc
	if err := NewDecoder(io.MultiReader(strings.NewReader(`{"m":`), iotest.ErrReader(boom))).Decode(&doc); !errors.Is(err, boom) {
		t.Errorf("read error inside a document: err = %v, want %v", err, boom)
	}
	dec := NewDecoder(io.MultiReader(strings.NewReader(`{"m":1}`), iotest.ErrReader(boom)))
	if err := dec.Decode(&doc); err != nil || doc.M != 1 {
		t.Fatalf("document before a read error: m = %d, err = %v", doc.M, err)
	}
	if err := dec.End(); !errors.Is(err, boom) {
		t.Errorf("End after a read error: err = %v, want %v", err, boom)
	}
	if err := NewDecoder(zeroReader{}).Decode(&doc); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("zero-progress reader: err = %v, want io.ErrNoProgress", err)
	}
	dec = NewDecoder(strings.NewReader(`{"m":1}` + " \n\t"))
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if err := dec.End(); err != nil {
		t.Errorf("End before trailing whitespace only: err = %v", err)
	}

	// Three documents of ~3 read buffers each, read in bulk and in
	// half-size reads: every one decodes whole.
	name := strings.Repeat("n", 3*minRead)
	var stream strings.Builder
	for m := 1; m <= 3; m++ {
		fmt.Fprintf(&stream, `{"m":%d,"tasks":[{"p":1,"name":"%s"}]}`+"\n", m, name)
	}
	for _, r := range []io.Reader{strings.NewReader(stream.String()), iotest.HalfReader(strings.NewReader(stream.String()))} {
		dec := NewDecoder(r)
		for m := 1; m <= 3; m++ {
			if err := dec.Decode(&doc); err != nil || doc.M != m || len(doc.Tasks) != 1 || doc.Tasks[0].Name != name {
				t.Fatalf("document %d: m = %d, err = %v", m, doc.M, err)
			}
		}
		if err := dec.Decode(&doc); err != io.EOF {
			t.Errorf("after the last document: err = %v, want io.EOF", err)
		}
	}
}
