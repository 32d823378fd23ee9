package model

import (
	"errors"
	"io"
	"strings"
	"testing"
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
