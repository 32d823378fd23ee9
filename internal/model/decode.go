package model

// The item decoder: one reflection-free, single-pass reader for the
// item wire format every front end accepts — an instance
// {"m","tasks"}, a task DAG (the same plus "edges") and, through
// DecodeItem, an envelope {"source","item"} naming its payload. It
// reads a byte stream document by document, validating JSON syntax and
// decoding the fields it knows in the same pass, and it keeps the
// semantics a reflective encoding/json decode of those shapes had:
//
//   - keys match exactly or under bytes.EqualFold ("ſ" matches "s"),
//     unknown keys are skipped, a repeated key decodes again over what
//     the earlier one left (so the last scalar wins), and null leaves a
//     field unset (a null array sets it to nil);
//   - integers are range-checked and must be integer literals, so 1.0
//     and 1e2 are type errors;
//   - a type error is recorded on the Doc and the rest of the document
//     is still read, so a syntax error anywhere in it wins;
//   - strings with escapes or non-ASCII bytes are unquoted by
//     encoding/json itself, so they decode exactly as it decodes them.
//
// Syntax and read errors end the stream (there is no boundary to
// resynchronize on); type errors fail only their document.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// maxDepth bounds container nesting the way encoding/json does: a
// deeper document is a syntax error, not a deep recursion.
const maxDepth = 10000

// minRead is the least free buffer space offered to each Read.
const minRead = 4096

// Doc is one decoded item document. Type errors do not stop decoding:
// Err holds the first one in the document itself, "m" or "tasks", and
// EdgeErr the first one in "edges", so an instance read can ignore a
// malformed edge list the way it ignores any other unknown key.
type Doc struct {
	M     int
	Tasks []Task
	// HasEdges reports that an "edges" key was present, even as null;
	// it is what selects the DAG kind of an item.
	HasEdges bool
	// Edges holds the [pred, succ] pairs of "edges" in order.
	Edges [][2]int
	// BadEdge, when non-nil, is the first edge that was not a pair.
	BadEdge *EdgeShape

	Err, EdgeErr error

	// Source is the "source" string of an envelope DecodeItem
	// unwrapped; "" when there was none, or it was absent or null.
	Source string

	// tasksCopied and edgesCopied mark slices copied out of the
	// decoder's scratch, whose capacity is not the one a repeated key
	// must decode over (see regrow).
	tasksCopied, edgesCopied bool
}

// EdgeShape locates an edge that is not a [pred, succ] pair: edge
// Index had Len elements (0 for null).
type EdgeShape struct{ Index, Len int }

// Instance validates the decoded document as an independent-task
// instance. Files with implicit IDs (all zero) are renumbered
// sequentially; any nonzero ID makes the file explicit, and Validate
// then holds every ID to its index.
func (doc *Doc) Instance() (*Instance, error) {
	if doc.Err != nil {
		return nil, fmt.Errorf("model: decoding instance: %w", doc.Err)
	}
	in := &Instance{M: doc.M, Tasks: doc.Tasks}
	implicit := true
	for _, t := range in.Tasks {
		if t.ID != 0 {
			implicit = false
			break
		}
	}
	if implicit {
		for i := range in.Tasks {
			in.Tasks[i].ID = i
		}
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// SyntaxError is malformed JSON (or trailing content after a
// document) at a byte offset of the input.
type SyntaxError struct {
	Offset int64
	msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at byte %d: %s", e.Offset, e.msg)
}

// Decoder reads item documents from a stream. It buffers only the
// document being read (plus whatever the last Read delivered past it),
// so each document is available as soon as its last byte arrives.
type Decoder struct {
	r     io.Reader // nil when decoding a byte slice
	buf   []byte
	pos   int   // next unread byte of buf
	off   int64 // stream offset of buf[0]
	rerr  error // sticky error from r; io.EOF once it is drained
	depth int   // open containers

	// Scratch the first "tasks" and "edges" array of a document is
	// decoded into, so their growth is paid once per decoder.
	taskBuf []Task
	edgeBuf [][2]int
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, minRead)}
}

// NewBytesDecoder returns a decoder over b, which it never modifies.
func NewBytesDecoder(b []byte) *Decoder {
	return &Decoder{buf: b, rerr: io.EOF}
}

// Decode reads the next document as an instance or graph; envelope
// keys are unknown keys to it. It returns io.EOF when only whitespace
// remains, the reader's error if reading fails, and a *SyntaxError or
// io.ErrUnexpectedEOF for malformed input.
func (d *Decoder) Decode(doc *Doc) error { return d.decode(doc, false) }

// DecodeItem is Decode for item streams: a document with an "item" key
// is an envelope, and doc then holds the item's fields and the
// envelope's Source. The last "item" wins, and the envelope's own "m",
// "tasks" and "edges", type errors included, are ignored.
func (d *Decoder) DecodeItem(doc *Doc) error { return d.decode(doc, true) }

// End reports trailing content after the last document as a syntax
// error. It is for inputs that must hold exactly one document.
func (d *Decoder) End() error {
	if !d.skipSpace() {
		if errors.Is(d.rerr, io.EOF) {
			return nil
		}
		return d.rerr
	}
	return d.syntax("invalid character %s after top-level value", quoteByte(d.buf[d.pos]))
}

func (d *Decoder) decode(doc *Doc, envelope bool) error {
	d.compact()
	if !d.skipSpace() {
		return d.rerr
	}
	d.depth = 0
	*doc = Doc{}
	if !envelope {
		return d.doc(doc, nil)
	}
	var env envelopeState
	if err := d.doc(doc, &env); err != nil {
		return err
	}
	if env.wrapped {
		*doc = env.item
		doc.Source = env.source
	}
	return nil
}

// envelopeState collects an envelope's keys while its top level is
// read.
type envelopeState struct {
	wrapped bool
	source  string
	item    Doc
}

// compact drops consumed input between documents, so the buffer holds
// at most one document plus one Read's worth of lookahead.
func (d *Decoder) compact() {
	if d.r == nil || d.pos == 0 {
		return
	}
	if d.pos == len(d.buf) || d.pos > cap(d.buf)/2 {
		n := copy(d.buf, d.buf[d.pos:])
		d.off += int64(d.pos)
		d.buf, d.pos = d.buf[:n], 0
	}
}

// more reads at least one more byte into buf, reporting false at the
// end of input. Bytes already in buf keep their indexes.
func (d *Decoder) more() bool {
	if d.rerr != nil {
		return false
	}
	if cap(d.buf)-len(d.buf) < minRead {
		nb := make([]byte, len(d.buf), 2*cap(d.buf)+minRead)
		copy(nb, d.buf)
		d.buf = nb
	}
	for tries := 0; ; tries++ {
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			d.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
		if tries == 100 {
			d.rerr = io.ErrNoProgress
			return false
		}
	}
}

// need reports whether n bytes are available at pos, reading as needed.
func (d *Decoder) need(n int) bool {
	for len(d.buf)-d.pos < n {
		if !d.more() {
			return false
		}
	}
	return true
}

// skipSpace skips JSON whitespace and reports whether a byte follows.
func (d *Decoder) skipSpace() bool {
	for {
		for d.pos < len(d.buf) {
			switch d.buf[d.pos] {
			case ' ', '\t', '\n', '\r':
				d.pos++
			default:
				return true
			}
		}
		if !d.more() {
			return false
		}
	}
}

// truncated is the error for input that ends inside a document.
func (d *Decoder) truncated() error {
	if errors.Is(d.rerr, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return d.rerr
}

// next skips whitespace and returns the byte that follows, or the
// truncation error.
func (d *Decoder) next() (byte, error) {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return d.buf[d.pos], nil // compact input: no whitespace to skip
	}
	if !d.skipSpace() {
		return 0, d.truncated()
	}
	return d.buf[d.pos], nil
}

func (d *Decoder) syntax(format string, args ...any) error {
	return &SyntaxError{Offset: d.off + int64(d.pos), msg: fmt.Sprintf(format, args...)}
}

// quoteByte renders an input byte the way encoding/json's errors do.
func quoteByte(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// typeErr is a pending type error: the value at stream offset off was
// got where the field holds want. The caller names the field, so the
// field path is only built when a document is actually rejected.
type typeErr struct {
	off       int64
	want, got string
}

// record keeps te, named for field, as *dst unless an earlier type
// error of the document is already there.
func record(dst *error, te *typeErr, field string) {
	if *dst == nil {
		*dst = fmt.Errorf("%s at byte %d: want %s, got %s", field, te.off, te.want, te.got)
	}
}

// kindOf names the JSON kind of a value by its first byte.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// enter and leave bracket a container; nesting past maxDepth is a
// syntax error.
func (d *Decoder) enter() error {
	d.depth++
	if d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	return nil
}

func (d *Decoder) leave() { d.depth-- }

// key reads the next member key of the object being read (first: just
// after its '{'), leaving pos at the member's value. done reports the
// closing '}'. The returned bytes are the unquoted key, valid until
// the next read.
func (d *Decoder) key(first bool) (key []byte, done bool, err error) {
	c, err := d.next()
	if err != nil {
		return nil, false, err
	}
	if c == '}' {
		d.pos++
		d.leave()
		return nil, true, nil
	}
	if !first {
		if c != ',' {
			return nil, false, d.syntax("invalid character %s after object key:value pair", quoteByte(c))
		}
		d.pos++
		if c, err = d.next(); err != nil {
			return nil, false, err
		}
	}
	if c != '"' {
		return nil, false, d.syntax("invalid character %s looking for beginning of object key string", quoteByte(c))
	}
	start, plain, err := d.str()
	if err != nil {
		return nil, false, err
	}
	if plain {
		key = d.buf[start+1 : d.pos-1]
	} else {
		key = []byte(unquote(d.buf[start:d.pos]))
	}
	if c, err = d.next(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, d.syntax("invalid character %s after object key", quoteByte(c))
	}
	d.pos++
	if _, err = d.next(); err != nil {
		return nil, false, err
	}
	return key, false, nil
}

// elem advances to the next element of the array being read (first:
// just after its '['), leaving pos at the element. done reports the
// closing ']'.
func (d *Decoder) elem(first bool) (done bool, err error) {
	c, err := d.next()
	if err != nil {
		return false, err
	}
	if c == ']' {
		d.pos++
		d.leave()
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntax("invalid character %s after array element", quoteByte(c))
		}
		d.pos++
		if _, err = d.next(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Field names, in the order field returns their indexes. The envelope
// keys come last so a plain document can leave them out.
var (
	docFields  = []string{"m", "tasks", "edges", "item", "source"}
	taskFields = []string{"id", "p", "s", "name"}
)

// field returns the index of the name an object key matches the way
// encoding/json matches it — exactly, else under bytes.EqualFold — or
// -1 for an unknown key.
func field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// unquote decodes a string token with escapes or non-ASCII bytes.
// encoding/json does the rare work, so such strings — invalid UTF-8
// and surrogate escapes included — decode exactly as it decodes them.
func unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		// Unreachable: str validated the token.
		return ""
	}
	return s
}

// str scans the string token at pos, returning its start. plain
// reports a token without escapes or non-ASCII bytes, whose bytes
// between the quotes are its value.
func (d *Decoder) str() (start int, plain bool, err error) {
	start = d.pos
	d.pos++
	plain = true
	for {
		for d.pos < len(d.buf) {
			c := d.buf[d.pos]
			switch {
			case c == '"':
				d.pos++
				return start, plain, nil
			case c == '\\':
				plain = false
				if err := d.escape(); err != nil {
					return start, false, err
				}
				continue
			case c < 0x20:
				return start, false, d.syntax("invalid character %s in string literal", quoteByte(c))
			case c >= 0x80:
				plain = false
			}
			d.pos++
		}
		if !d.more() {
			return start, false, d.truncated()
		}
	}
}

// escape validates the escape sequence at pos and steps over it.
func (d *Decoder) escape() error {
	if !d.need(2) {
		return d.truncated()
	}
	switch d.buf[d.pos+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.pos += 2
		return nil
	case 'u':
		d.pos += 2
		for i := 0; i < 4; i++ {
			if !d.need(1) {
				return d.truncated()
			}
			c := d.buf[d.pos]
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return d.syntax("invalid character %s in \\u hexadecimal character escape", quoteByte(c))
			}
			d.pos++
		}
		return nil
	}
	d.pos++
	return d.syntax("invalid character %s in string escape code", quoteByte(d.buf[d.pos]))
}

// digits steps over a run of decimal digits, reporting how many.
func (d *Decoder) digits() int {
	n := 0
	for {
		for d.pos < len(d.buf) {
			if c := d.buf[d.pos]; c < '0' || c > '9' {
				return n
			}
			d.pos++
			n++
		}
		if !d.more() {
			return n
		}
	}
}

// peek returns the byte at pos, or false at the end of input.
func (d *Decoder) peek() (byte, bool) {
	if !d.need(1) {
		return 0, false
	}
	return d.buf[d.pos], true
}

// num scans the number token at pos, returning its start; integer
// reports a literal without fraction or exponent. A number ends at the
// first byte that cannot continue it, or at the end of input.
func (d *Decoder) num() (start int, integer bool, err error) {
	start = d.pos
	if d.buf[d.pos] == '-' {
		d.pos++
	}
	c, ok := d.peek()
	switch {
	case !ok:
		return start, false, d.truncated()
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return start, false, d.syntax("invalid character %s in numeric literal", quoteByte(c))
	}
	integer = true
	if c, ok = d.peek(); ok && c == '.' {
		integer = false
		d.pos++
		if d.digits() == 0 {
			return start, false, d.badDigit()
		}
		c, ok = d.peek()
	}
	if ok && (c == 'e' || c == 'E') {
		integer = false
		d.pos++
		if c, ok = d.peek(); ok && (c == '+' || c == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return start, false, d.badDigit()
		}
	}
	return start, integer, nil
}

// badDigit reports a missing digit inside a number.
func (d *Decoder) badDigit() error {
	c, ok := d.peek()
	if !ok {
		return d.truncated()
	}
	return d.syntax("invalid character %s in numeric literal", quoteByte(c))
}

// literal steps over the literal true, false or null at pos.
func (d *Decoder) literal(word string) error {
	for i := 1; i < len(word); i++ {
		if !d.need(i + 1) {
			return d.truncated()
		}
		if c := d.buf[d.pos+i]; c != word[i] {
			d.pos += i
			return d.syntax("invalid character %s in literal %s (expecting %s)", quoteByte(c), word, quoteByte(word[i]))
		}
	}
	d.pos += len(word)
	return nil
}

// skip validates and steps over the value at pos.
func (d *Decoder) skip() error {
	switch c := d.buf[d.pos]; c {
	case '{':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, done, err := d.key(first)
			if err != nil || done {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.enter(); err != nil {
			return err
		}
		for first := true; ; first = false {
			done, err := d.elem(first)
			if err != nil || done {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			_, _, err := d.num()
			return err
		}
		return d.syntax("invalid character %s looking for beginning of value", quoteByte(c))
	}
}

// mismatched skips the value at pos, which is not the want its field
// holds, and describes it as a type error.
func (d *Decoder) mismatched(want string) (*typeErr, error) {
	te := &typeErr{off: d.off + int64(d.pos), want: want, got: kindOf(d.buf[d.pos])}
	start := d.pos
	if err := d.skip(); err != nil {
		return nil, err
	}
	if te.got == "number" {
		te.got += " " + string(d.buf[start:d.pos])
	}
	return te, nil
}

// int64Value decodes the value at pos into *v; null leaves it. Any
// other value that is not an in-range integer literal is a type error.
func (d *Decoder) int64Value(v *int64) (*typeErr, error) {
	c := d.buf[d.pos]
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatched("an integer")
	}
	off := d.off + int64(d.pos)
	start, integer, err := d.num()
	if err != nil {
		return nil, err
	}
	tok := d.buf[start:d.pos]
	n, ok := parseInt(tok)
	if !integer || !ok {
		return &typeErr{off: off, want: "an integer", got: "number " + string(tok)}, nil
	}
	*v = n
	return nil, nil
}

// intValue is int64Value for int fields, range-checked for int.
func (d *Decoder) intValue(v *int) (*typeErr, error) {
	off := d.off + int64(d.pos)
	n := int64(*v)
	if te, err := d.int64Value(&n); te != nil || err != nil {
		return te, err
	}
	if int64(int(n)) != n {
		return &typeErr{off: off, want: "an integer", got: "number " + strconv.FormatInt(n, 10)}, nil
	}
	*v = int(n)
	return nil, nil
}

// parseInt parses a validated integer literal, reporting overflow.
func parseInt(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > 19 {
		return 0, false
	}
	var u uint64
	for _, c := range tok {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// strValue decodes the string value at pos into *v; null leaves it.
func (d *Decoder) strValue(v *string) (*typeErr, error) {
	switch d.buf[d.pos] {
	case 'n':
		return nil, d.literal("null")
	case '"':
		start, plain, err := d.str()
		if err != nil {
			return nil, err
		}
		if plain {
			*v = string(d.buf[start+1 : d.pos-1])
		} else {
			*v = unquote(d.buf[start:d.pos])
		}
		return nil, nil
	}
	return d.mismatched("a string")
}

// doc decodes the document value at pos into doc. env, when non-nil,
// also collects envelope keys.
func (d *Decoder) doc(doc *Doc, env *envelopeState) error {
	switch d.buf[d.pos] {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		te, err := d.mismatched("an object")
		if te != nil {
			record(&doc.Err, te, "document")
		}
		return err
	}
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		names := docFields[:3]
		if env != nil {
			names = docFields
		}
		var te *typeErr
		switch field(key, names) {
		case 0:
			if te, err = d.intValue(&doc.M); te != nil {
				record(&doc.Err, te, "m")
			}
		case 1:
			te, err = decodeArray(d, &doc.Tasks, &doc.tasksCopied, &d.taskBuf, func(t *Task, i int) error {
				return d.task(t, i, &doc.Err)
			})
			if te != nil {
				record(&doc.Err, te, "tasks")
			}
		case 2:
			doc.HasEdges, doc.BadEdge = true, nil
			te, err = decodeArray(d, &doc.Edges, &doc.edgesCopied, &d.edgeBuf, func(e *[2]int, k int) error {
				n, err := d.edge(e, k, &doc.EdgeErr)
				if n != 2 && doc.BadEdge == nil {
					doc.BadEdge = &EdgeShape{Index: k, Len: n}
				}
				return err
			})
			if te != nil {
				record(&doc.EdgeErr, te, "edges")
			}
		case 3:
			env.wrapped = true
			env.item = Doc{}
			err = d.doc(&env.item, nil)
		case 4:
			switch d.buf[d.pos] {
			case 'n':
				env.source = ""
				err = d.literal("null")
			case '"':
				_, err = d.strValue(&env.source)
			default:
				// A non-string source leaves the label as it was.
				err = d.skip()
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// decodeArray decodes the array value at pos into *s the way
// encoding/json decodes a slice: null sets it to nil, [] makes it
// empty, and a repeated key decodes its elements over the earlier
// slice in place (within its capacity), so a null element or a missing
// field keeps what was there. elem decodes element i. A first array
// goes through the decoder's scratch and is copied out at its exact
// length; copied marks such a slice, whose capacity is not the one a
// repeated key must decode over (see regrow). A value that is not an
// array is returned as a type error.
func decodeArray[T any](d *Decoder, s *[]T, copied *bool, scratch *[]T, elem func(*T, int) error) (*typeErr, error) {
	switch d.buf[d.pos] {
	case 'n':
		*s = nil
		return nil, d.literal("null")
	case '[':
	default:
		return d.mismatched("an array")
	}
	if err := d.enter(); err != nil {
		return nil, err
	}
	a, fresh := *s, *s == nil
	switch {
	case fresh:
		a = (*scratch)[:0]
	case *copied:
		a = regrow(a)
	}
	var zero T
	for i := 0; ; i++ {
		done, err := d.elem(i == 0)
		if err != nil {
			return nil, err
		}
		if done {
			switch {
			case i == 0:
				*s, *copied = []T{}, false
			case fresh:
				*scratch = a
				*s, *copied = slices.Clone(a[:i]), true
			default:
				*s, *copied = a[:i], false
			}
			return nil, nil
		}
		if i < cap(a) {
			a = a[:i+1]
			if fresh {
				a[i] = zero // scratch holds an earlier document's values
			}
		} else {
			a = append(a, zero)
		}
		if err := elem(&a[i], i); err != nil {
			return nil, err
		}
	}
}

// regrow copies s into a slice grown from nil one element at a time —
// the capacity a reflective decode would have left it with, which
// decides what a repeated key's in-place decode can see past len.
func regrow[T any](s []T) []T {
	var g []T
	var zero T
	for range s {
		g = append(g, zero)
	}
	copy(g, s)
	return g
}

// task decodes element i of "tasks" into t.
func (d *Decoder) task(t *Task, i int, dst *error) error {
	switch d.buf[d.pos] {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		te, err := d.mismatched("an object")
		if te != nil {
			record(dst, te, "tasks["+strconv.Itoa(i)+"]")
		}
		return err
	}
	if err := d.enter(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, done, err := d.key(first)
		if err != nil || done {
			return err
		}
		var te *typeErr
		f := field(key, taskFields)
		switch f {
		case 0:
			te, err = d.intValue(&t.ID)
		case 1:
			te, err = d.int64Value(&t.P)
		case 2:
			te, err = d.int64Value(&t.S)
		case 3:
			te, err = d.strValue(&t.Name)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if te != nil {
			record(dst, te, "tasks["+strconv.Itoa(i)+"]."+taskFields[f])
		}
	}
}

// edge decodes element k of "edges" into e, returning its element
// count (0 for null; 2 for a non-array, which is a type error).
func (d *Decoder) edge(e *[2]int, k int, dst *error) (int, error) {
	switch d.buf[d.pos] {
	case 'n':
		return 0, d.literal("null")
	case '[':
	default:
		te, err := d.mismatched("an array")
		if te != nil {
			record(dst, te, "edges["+strconv.Itoa(k)+"]")
		}
		return 2, err
	}
	if err := d.enter(); err != nil {
		return 0, err
	}
	for j := 0; ; j++ {
		done, err := d.elem(j == 0)
		if err != nil || done {
			return j, err
		}
		if j >= 2 {
			if err := d.skip(); err != nil {
				return 0, err
			}
			continue
		}
		te, err := d.intValue(&e[j])
		if err != nil {
			return 0, err
		}
		if te != nil {
			record(dst, te, "edges["+strconv.Itoa(k)+"]["+strconv.Itoa(j)+"]")
		}
	}
}
