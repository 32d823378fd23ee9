package engine

// The cache-entry codec. appendResult writes an entry and decodeResult
// reads it back, each in one pass over the bytes without reflection;
// the decoder then validates what it read before the Result may be
// served.
//
// An entry is the JSON object json.Marshal would write for the entry's
// wire struct (codec_ref_test.go keeps it and that encoder as the
// reference): keys in field order, no whitespace, "front" and "err"
// present only when non-empty. The decoder accepts exactly that
// layout. It rejects much that encoding/json would take — unknown,
// duplicate, reordered or case-folded keys, null values, whitespace,
// invalid UTF-8 and lone surrogates in a string — because appendResult
// never writes it. Rejecting an entry is always safe: a rejected entry
// is a cache miss, so the item is recomputed and its entry overwritten.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"storagesched/internal/bounds"
	"storagesched/internal/core"
	"storagesched/internal/model"
)

// appendResult appends the cache entry of res to dst. Its bytes are
// json.Marshal's for the entry's wire struct: the δ of a run as
// encoding/json formats a float64, a run's error message escaped as
// encoding/json escapes a string, and "front" and "err" left out when
// empty. A non-finite δ has no JSON form, so a Result with one is an
// error: it is not cached.
func appendResult(dst []byte, res *Result) ([]byte, error) {
	b := &res.Bounds
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, wireVersion, 10)
	dst = append(dst, `,"bounds":{"M":`...)
	dst = strconv.AppendInt(dst, int64(b.M), 10)
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"WorkOverM":`, b.WorkOverM},
		{`,"MaxP":`, b.MaxP},
		{`,"CriticalPath":`, b.CriticalPath},
		{`,"CmaxLB":`, b.CmaxLB},
		{`,"MemOverM":`, b.MemOverM},
		{`,"MaxS":`, b.MaxS},
		{`,"MmaxLB":`, b.MmaxLB},
		{`,"SumCiLB":`, b.SumCiLB},
	} {
		dst = append(dst, f.key...)
		dst = strconv.AppendInt(dst, f.v, 10)
	}
	dst = append(dst, `},"runs":[`...)
	for i, r := range res.Runs {
		if math.IsNaN(r.Delta) || math.IsInf(r.Delta, 0) {
			return dst, fmt.Errorf("engine: run %d: δ = %g has no JSON form", i, r.Delta)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"alg":`...)
		dst = strconv.AppendInt(dst, int64(r.Algorithm), 10)
		dst = append(dst, `,"tie":`...)
		dst = strconv.AppendInt(dst, int64(r.Tie), 10)
		dst = append(dst, `,"delta":`...)
		dst = appendJSONFloat(dst, r.Delta)
		dst = append(dst, `,"cmax":`...)
		dst = strconv.AppendInt(dst, r.Value.Cmax, 10)
		dst = append(dst, `,"mmax":`...)
		dst = strconv.AppendInt(dst, r.Value.Mmax, 10)
		if r.Err != nil {
			if msg := r.Err.Error(); msg != "" {
				dst = append(dst, `,"err":`...)
				dst = appendJSONString(dst, msg)
			}
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if len(res.Front) > 0 {
		dst = append(dst, `,"front":[`...)
		for k, p := range res.Front {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"cmax":`...)
			dst = strconv.AppendInt(dst, p.Value.Cmax, 10)
			dst = append(dst, `,"mmax":`...)
			dst = strconv.AppendInt(dst, p.Value.Mmax, 10)
			dst = append(dst, `,"run":`...)
			dst = strconv.AppendInt(dst, int64(p.RunIndex), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in 'f' form unless |f| is
// below 1e-6 or at least 1e21, where it is in 'e' form with a one-digit
// negative exponent not zero-padded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a JSON string the way encoding/json
// writes one: '"' and '\\' and the control characters escaped, the
// HTML-sensitive '<', '>' and '&' and the JavaScript line terminators
// U+2028 and U+2029 as \u escapes, and each byte of invalid UTF-8 as
// U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // start of the bytes not yet copied
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeResult deserializes and validates a cached Result (checkResult).
// Any defect is an error, which callers treat as a cache miss.
func decodeResult(data []byte) (*Result, error) {
	d := entryDecoder{data: data}
	res, err := d.result()
	if err != nil {
		return nil, fmt.Errorf("engine: decoding cached result: offset %d: %w", d.pos, err)
	}
	if err := checkResult(res); err != nil {
		return nil, fmt.Errorf("engine: cached result rejected: %w", err)
	}
	return res, nil
}

// checkResult holds a decoded Result to what every computed Result
// satisfies:
//   - Bounds is self-consistent: CmaxLB = max(WorkOverM, MaxP,
//     CriticalPath) and MmaxLB = max(MemOverM, MaxS);
//   - every successful run lies on or above both lower bounds;
//   - every successful RLS run keeps Mmax ≤ ⌊δ·MmaxLB⌋, the memory cap
//     of Lemma 4;
//   - Front is exactly AssembleFront(Runs) (checkFront).
func checkResult(res *Result) error {
	b := &res.Bounds
	if b.CmaxLB != max(b.WorkOverM, b.MaxP, b.CriticalPath) || b.MmaxLB != max(b.MemOverM, b.MaxS) {
		return fmt.Errorf("inconsistent bounds %+v", *b)
	}
	// The RLS runs at one δ are adjacent, so one cap serves them all.
	capDelta, cap := math.NaN(), model.Mem(0)
	for i, r := range res.Runs {
		if r.Err != nil {
			continue
		}
		if r.Value.Cmax < b.CmaxLB || r.Value.Mmax < b.MmaxLB {
			return fmt.Errorf("run %d value %v below the lower bounds (%d, %d)", i, r.Value, b.CmaxLB, b.MmaxLB)
		}
		if r.Algorithm == AlgRLS {
			if r.Delta != capDelta {
				var err error
				if cap, err = core.MemCap(r.Delta, b.MmaxLB); err != nil {
					return fmt.Errorf("run %d: %w", i, err)
				}
				capDelta = r.Delta
			}
			if r.Value.Mmax > cap {
				return fmt.Errorf("run %d: RLS Mmax %d above the Lemma 4 cap %d", i, r.Value.Mmax, cap)
			}
		}
	}
	return checkFront(res.Runs, res.Front)
}

// checkFront reports whether front equals AssembleFront(runs) without
// assembling it. The two are equal exactly when every point is the
// value of its successful witness run, the points strictly increase in
// Cmax and strictly decrease in Mmax (so no point dominates another),
// and every successful run is weakly dominated by a point whose
// witness, when the values are equal, does not come after the run.
func checkFront(runs []Run, front []FrontPoint) error {
	for k, p := range front {
		if p.RunIndex < 0 || p.RunIndex >= len(runs) {
			return fmt.Errorf("front witness %d out of range [0,%d)", p.RunIndex, len(runs))
		}
		w := runs[p.RunIndex]
		if w.Err != nil {
			return fmt.Errorf("front point %d witnessed by failed run %d", k, p.RunIndex)
		}
		if w.Value != p.Value {
			return fmt.Errorf("front point %d is %v, its witness run %d is %v", k, p.Value, p.RunIndex, w.Value)
		}
		if k > 0 && (p.Value.Cmax <= front[k-1].Value.Cmax || p.Value.Mmax >= front[k-1].Value.Mmax) {
			return fmt.Errorf("front points %d and %d are not strictly monotone", k-1, k)
		}
	}
	for i, r := range runs {
		if r.Err != nil {
			continue
		}
		covered := false
		for _, p := range front {
			if p.Value.WeaklyDominates(r.Value) {
				// In a strictly monotone front no other point can
				// equal r's value once p weakly dominates it.
				if p.Value == r.Value && i < p.RunIndex {
					return fmt.Errorf("front point %v witnessed by run %d, not the first such run %d", p.Value, p.RunIndex, i)
				}
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("run %d value %v is missing from the front", i, r.Value)
		}
	}
	return nil
}

// checkLayout reports whether a cached Result has the shape the item's
// job layout computes: the item's processor count, one run per slot,
// and each run's (algorithm, tie-break, δ) equal to its slot's, the
// BLevel copy of an LPT job included. Admission runs it on every hit.
func checkLayout(res *Result, m int, jobs []job, slots int) error {
	if res.Bounds.M != m {
		return fmt.Errorf("engine: cached result has m = %d, the item %d", res.Bounds.M, m)
	}
	if len(res.Runs) != slots {
		return fmt.Errorf("engine: cached result has %d runs, the layout %d", len(res.Runs), slots)
	}
	for _, j := range jobs {
		if r := res.Runs[j.slot]; r.Algorithm != j.alg || r.Tie != j.tie || r.Delta != j.delta {
			return fmt.Errorf("engine: cached run %d is %s, the layout's %s", j.slot, r.Label(), Run{Algorithm: j.alg, Tie: j.tie, Delta: j.delta}.Label())
		}
		if j.twin < 0 {
			continue
		}
		if r := res.Runs[j.twin]; r.Algorithm != AlgRLS || r.Tie != core.TieBottomLevel || r.Delta != j.delta {
			return fmt.Errorf("engine: cached run %d is %s, the layout's BLevel copy at δ=%g", j.twin, r.Label(), j.delta)
		}
	}
	return nil
}

// entryDecoder reads one cache entry; pos is the offset of the next
// unread byte.
type entryDecoder struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("unexpected end of entry")

// result decodes the whole entry as a Result. appendResult writes the
// keys in field order with no whitespace, so the decoder matches each
// key with its punctuation as one literal.
func (d *entryDecoder) result() (*Result, error) {
	res := &Result{}
	v, err := d.integerAfter(`{"v":`)
	if err != nil {
		return nil, err
	}
	if v != wireVersion {
		return nil, fmt.Errorf("version %d, want %d", v, wireVersion)
	}
	if err := d.bounds(&res.Bounds); err != nil {
		return nil, err
	}
	if err := d.runs(res); err != nil {
		return nil, err
	}
	if d.literal(`,"front":[`) {
		if err := d.front(res); err != nil {
			return nil, err
		}
	}
	if err := d.expect(`}`); err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, errors.New("data after the entry")
	}
	return res, nil
}

func (d *entryDecoder) bounds(r *bounds.Record) error {
	var err error
	if r.M, err = d.intAfter(`,"bounds":{"M":`); err != nil {
		return err
	}
	for _, f := range [...]struct {
		key string
		v   *int64
	}{
		{`,"WorkOverM":`, &r.WorkOverM},
		{`,"MaxP":`, &r.MaxP},
		{`,"CriticalPath":`, &r.CriticalPath},
		{`,"CmaxLB":`, &r.CmaxLB},
		{`,"MemOverM":`, &r.MemOverM},
		{`,"MaxS":`, &r.MaxS},
		{`,"MmaxLB":`, &r.MmaxLB},
		{`,"SumCiLB":`, &r.SumCiLB},
	} {
		if *f.v, err = d.integerAfter(f.key); err != nil {
			return err
		}
	}
	return d.expect(`}`)
}

// runs decodes the run list into a stack buffer and copies it out at
// its exact size.
func (d *entryDecoder) runs(res *Result) error {
	if err := d.expect(`,"runs":[`); err != nil {
		return err
	}
	var buf [64]Run
	runs := buf[:0]
	for !d.literal(`]`) {
		if len(runs) > 0 {
			if err := d.expect(`,`); err != nil {
				return err
			}
		}
		var r Run
		alg, err := d.intAfter(`{"alg":`)
		if err != nil {
			return err
		}
		tie, err := d.intAfter(`,"tie":`)
		if err != nil {
			return err
		}
		r.Algorithm, r.Tie = Algorithm(alg), core.TieBreak(tie)
		if err := d.expect(`,"delta":`); err != nil {
			return err
		}
		if r.Delta, err = d.float(); err != nil {
			return err
		}
		if r.Value.Cmax, err = d.integerAfter(`,"cmax":`); err != nil {
			return err
		}
		if r.Value.Mmax, err = d.integerAfter(`,"mmax":`); err != nil {
			return err
		}
		if d.literal(`,"err":`) {
			msg, err := d.str()
			if err != nil {
				return err
			}
			if msg != "" {
				r.Err = errors.New(msg)
			}
		}
		if err := d.expect(`}`); err != nil {
			return err
		}
		runs = append(runs, r)
	}
	res.Runs = append(make([]Run, 0, len(runs)), runs...)
	return nil
}

// front decodes the front after its opening bracket; an empty list
// decodes as nil, like an absent one.
func (d *entryDecoder) front(res *Result) error {
	var buf [32]FrontPoint
	front := buf[:0]
	for !d.literal(`]`) {
		if len(front) > 0 {
			if err := d.expect(`,`); err != nil {
				return err
			}
		}
		var p FrontPoint
		var err error
		if p.Value.Cmax, err = d.integerAfter(`{"cmax":`); err != nil {
			return err
		}
		if p.Value.Mmax, err = d.integerAfter(`,"mmax":`); err != nil {
			return err
		}
		if p.RunIndex, err = d.intAfter(`,"run":`); err != nil {
			return err
		}
		if err := d.expect(`}`); err != nil {
			return err
		}
		front = append(front, p)
	}
	if len(front) > 0 {
		res.Front = append(make([]FrontPoint, 0, len(front)), front...)
	}
	return nil
}

// literal consumes s if the unread bytes start with it.
func (d *entryDecoder) literal(s string) bool {
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return true
	}
	return false
}

// expect is literal for bytes the format requires.
func (d *entryDecoder) expect(s string) error {
	if d.literal(s) {
		return nil
	}
	if d.pos == len(d.data) {
		return errTruncated
	}
	return fmt.Errorf("want %s", s)
}

// integerAfter reads the integer value of the key literal key.
func (d *entryDecoder) integerAfter(key string) (int64, error) {
	if err := d.expect(key); err != nil {
		return 0, err
	}
	return d.integer()
}

// digits advances over a run of decimal digits and returns its length.
func (d *entryDecoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// integer reads a JSON number that must be an int64: no fraction, no
// exponent, in range.
func (d *entryDecoder) integer() (int64, error) {
	start := d.pos
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	first := d.pos
	var u uint64 // wraps past 19 digits, which are rejected below
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		u = 10*u + uint64(d.data[d.pos]-'0')
		d.pos++
	}
	n := d.pos - first
	if n == 0 || n > 1 && d.data[first] == '0' {
		return 0, fmt.Errorf("malformed integer %q", d.data[start:d.pos])
	}
	if d.pos < len(d.data) {
		if c := d.data[d.pos]; c == '.' || c == 'e' || c == 'E' {
			return 0, fmt.Errorf("non-integral number in an integer field")
		}
	}
	// 19 digits cannot overflow a uint64; more cannot fit an int64.
	if n > 19 {
		return 0, fmt.Errorf("integer %s out of range", d.data[start:d.pos])
	}
	switch {
	case !neg && u <= 1<<63-1:
		return int64(u), nil
	case neg && u <= 1<<63:
		return -int64(u), nil
	}
	return 0, fmt.Errorf("integer %s out of range", d.data[start:d.pos])
}

// intAfter is integerAfter for an int field, which may be narrower
// than int64.
func (d *entryDecoder) intAfter(key string) (int, error) {
	x, err := d.integerAfter(key)
	if err == nil && int64(int(x)) != x {
		err = fmt.Errorf("integer %d out of range", x)
	}
	return int(x), err
}

// float reads a JSON number as a float64, exactly as strconv parses
// it; a number out of float64's range is an error.
func (d *entryDecoder) float() (float64, error) {
	start := d.pos
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	first := d.pos
	if n := d.digits(); n == 0 || n > 1 && d.data[first] == '0' {
		return 0, fmt.Errorf("malformed number %q", d.data[start:d.pos])
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return 0, fmt.Errorf("malformed number %q", d.data[start:d.pos])
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return 0, fmt.Errorf("malformed number %q", d.data[start:d.pos])
		}
	}
	return strconv.ParseFloat(string(d.data[start:d.pos]), 64)
}

// str reads a JSON string. The raw bytes must be valid UTF-8 and a
// \u escape of a surrogate must be half of a valid pair: appendResult
// writes nothing else, where encoding/json would substitute U+FFFD.
func (d *entryDecoder) str() (string, error) {
	if err := d.expect(`"`); err != nil {
		return "", err
	}
	start := d.pos
	var buf []byte // the unescaped string once an escape is seen
	plain := start // start of the bytes not yet copied to buf
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			if !utf8.Valid(raw) {
				return "", fmt.Errorf("invalid UTF-8 in a string")
			}
			if buf == nil {
				return string(raw), nil
			}
			return string(append(buf, d.data[plain:d.pos-1]...)), nil
		case c < 0x20:
			return "", fmt.Errorf("control character in a string")
		case c != '\\':
			d.pos++
			continue
		}
		buf = append(buf, d.data[plain:d.pos]...)
		r, err := d.escape()
		if err != nil {
			return "", err
		}
		buf = utf8.AppendRune(buf, r)
		plain = d.pos
	}
	return "", errTruncated
}

// escape decodes the escape sequence at pos, a surrogate pair as one
// rune.
func (d *entryDecoder) escape() (rune, error) {
	if d.pos+1 >= len(d.data) {
		return 0, errTruncated
	}
	c := d.data[d.pos+1]
	d.pos += 2
	switch c {
	case '"', '\\', '/':
		return rune(c), nil
	case 'b':
		return '\b', nil
	case 'f':
		return '\f', nil
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case 'u':
		r, err := d.hex4()
		if err != nil || !utf16.IsSurrogate(r) {
			return r, err
		}
		if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
			d.pos += 2
			lo, err := d.hex4()
			if err != nil {
				return 0, err
			}
			if pair := utf16.DecodeRune(r, lo); pair != utf8.RuneError {
				return pair, nil
			}
		}
		return 0, fmt.Errorf("unpaired surrogate in a string")
	}
	return 0, fmt.Errorf("invalid escape %q", c)
}

// hex4 reads the four hex digits of a \u escape.
func (d *entryDecoder) hex4() (rune, error) {
	if d.pos+4 > len(d.data) {
		return 0, errTruncated
	}
	var r rune
	for _, c := range d.data[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r, nil
}
