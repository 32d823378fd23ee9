package serve

// Decoding item streams. Both front ends accept the same documents —
// an instance {"m","tasks"}, a task DAG {"m","tasks","edges"} (the
// presence of "edges", even empty or null, selects the DAG kind), or an
// envelope {"source": "...", "item": {...}} naming its payload — and
// the same two stream shapes: a stream of concatenated JSON values
// (compact JSONL and indented documents alike) and a line-oriented
// JSONL file of one document per line, where each bad line fails
// alone. Both read through model.Decoder, the decoder every JSON item
// input shares.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"strconv"

	"storagesched/internal/dag"
	"storagesched/internal/engine"
	"storagesched/internal/model"
)

// itemOf turns one decoded document into a batch item and its source
// label; source is the default label used when the document is not an
// envelope (or is one without a non-empty "source"). The presence of
// "edges" selects the DAG kind.
func itemOf(doc *model.Doc, source string) (engine.BatchItem, string) {
	if doc.Source != "" {
		source = doc.Source
	}
	item := engine.BatchItem{}
	var err error
	if doc.HasEdges {
		item.Graph, err = dag.FromDoc(doc)
	} else {
		item.Instance, err = doc.Instance()
	}
	if err != nil {
		item.Err = fmt.Errorf("%s: %w", source, err)
	}
	return item, source
}

// DecodeItems yields one item per JSON document decoded from r —
// accepting compact JSONL, indented multi-line documents and envelopes
// alike — labelling them "label:1", "label:2", ... unless an envelope
// names its own source. Each item is yielded as soon as its document's
// last byte has been read. c, when non-nil, is closed once the stream
// is drained. A malformed document poisons the rest of the stream
// (there is no line boundary to resynchronize on), so it is reported
// once as a final error item and the stream ends; a document that
// parses but fails item validation rides its error on the item and
// fails alone.
func DecodeItems(label string, r io.Reader, c io.Closer) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		if c != nil {
			defer c.Close()
		}
		dec := model.NewDecoder(r)
		for k := 1; ; k++ {
			var doc model.Doc
			source := label + ":" + strconv.Itoa(k)
			if err := dec.DecodeItem(&doc); err != nil {
				if err != io.EOF {
					yield(engine.BatchItem{Err: fmt.Errorf("%s value %d: %w", label, k, err)}, source)
				}
				return
			}
			if !yield(itemOf(&doc, source)) {
				return
			}
		}
	}
}

// DecodeJSONLItems yields one item per non-empty line of r, closing c
// (when non-nil) once the stream is drained. Each line must hold
// exactly one document. Unlike DecodeItems, a bad line fails alone —
// the line boundary resynchronizes the stream — and the remaining
// lines still sweep.
func DecodeJSONLItems(label string, r io.Reader, c io.Closer) iter.Seq2[engine.BatchItem, string] {
	return func(yield func(engine.BatchItem, string) bool) {
		if c != nil {
			defer c.Close()
		}
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			source := label + ":" + strconv.Itoa(lineNo)
			var doc model.Doc
			dec := model.NewBytesDecoder(text)
			err := dec.DecodeItem(&doc)
			if err == nil {
				err = dec.End()
			}
			var item engine.BatchItem
			if err != nil {
				// A line that is not one well-formed document fails
				// as an undecodable instance, as it always has.
				item.Err = fmt.Errorf("%s: model: decoding instance: %w", source, err)
			} else {
				item, source = itemOf(&doc, source)
			}
			if !yield(item, source) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(engine.BatchItem{Err: fmt.Errorf("%s: %w", label, err)}, label)
		}
	}
}
