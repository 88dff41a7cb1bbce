package server

import (
	"bytes"
	"strconv"
	"sync"
	"unicode/utf8"

	"muse/internal/instance"
)

// jw is a small JSON writer producing output byte-identical to an
// encoding/json Encoder over the equivalent map[string]any tree:
// compact (no insignificant whitespace), HTML escaping (<, >, &), a
// trailing newline after the document. Callers are responsible for
// emitting object keys in sorted order — that is what map encoding
// produces — and the differential test in render_direct_test.go holds
// the direct renderer to exactly that contract on full dialogs.
//
// The writer, its buffer, and its value scratch are pooled; the step
// path serves a response without allocating the body.
type jw struct {
	buf bytes.Buffer
	// stack tracks the open containers: 'o'/'O' object before/after its
	// first key, 'a'/'A' array before/after its first element.
	stack   []byte
	scratch []byte // reused for instance.Value display renderings
}

var jwPool = sync.Pool{New: func() any { return new(jw) }}

func getJW() *jw { return jwPool.Get().(*jw) }

// putJW returns w to the pool unless its buffer grew past the point
// where keeping it pinned costs more than reallocating.
func putJW(w *jw) {
	if w.buf.Cap() > 1<<20 {
		return
	}
	w.buf.Reset()
	w.stack = w.stack[:0]
	jwPool.Put(w)
}

func (w *jw) bytes() []byte { return w.buf.Bytes() }

// finish terminates the document the way Encoder.Encode does.
func (w *jw) finish() { w.buf.WriteByte('\n') }

// elem positions the writer for the next value: inside an array it
// writes the separator; after a key or at top level the value lands
// in place.
func (w *jw) elem() {
	if n := len(w.stack); n > 0 {
		switch w.stack[n-1] {
		case 'a':
			w.stack[n-1] = 'A'
		case 'A':
			w.buf.WriteByte(',')
		}
	}
}

func (w *jw) openObj() {
	w.elem()
	w.buf.WriteByte('{')
	w.stack = append(w.stack, 'o')
}

func (w *jw) closeObj() {
	w.stack = w.stack[:len(w.stack)-1]
	w.buf.WriteByte('}')
}

func (w *jw) openArr() {
	w.elem()
	w.buf.WriteByte('[')
	w.stack = append(w.stack, 'a')
}

func (w *jw) closeArr() {
	w.stack = w.stack[:len(w.stack)-1]
	w.buf.WriteByte(']')
}

func (w *jw) key(k string) {
	n := len(w.stack)
	if w.stack[n-1] == 'O' {
		w.buf.WriteByte(',')
	}
	w.stack[n-1] = 'O'
	writeEscapedString(&w.buf, k)
	w.buf.WriteByte(':')
}

func (w *jw) str(s string) {
	w.elem()
	writeEscapedString(&w.buf, s)
}

// strDisplay writes an instance value's display rendering as a JSON
// string without materializing the intermediate Go string.
func (w *jw) strDisplay(v instance.Value) {
	w.elem()
	w.scratch = instance.AppendDisplay(w.scratch[:0], v)
	writeEscapedBytes(&w.buf, w.scratch)
}

func (w *jw) int(n int) {
	w.elem()
	w.scratch = strconv.AppendInt(w.scratch[:0], int64(n), 10)
	w.buf.Write(w.scratch)
}

// float writes a JSON number the way encoding/json renders it for
// zero and for magnitudes in [1e-6, 1e21) — the only values the
// ranking fields carry (they are quantized to four decimals in [0,1]).
// Outside that band encoding/json switches to exponent form, which
// this writer deliberately does not implement.
func (w *jw) float(f float64) {
	w.elem()
	w.scratch = strconv.AppendFloat(w.scratch[:0], f, 'f', -1, 64)
	w.buf.Write(w.scratch)
}

func (w *jw) bool(v bool) {
	w.elem()
	if v {
		w.buf.WriteString("true")
	} else {
		w.buf.WriteString("false")
	}
}

func (w *jw) null() {
	w.elem()
	w.buf.WriteString("null")
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the bytes encoding/json passes through verbatim with
// HTML escaping enabled: printable ASCII minus the JSON and HTML
// specials.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

// writeEscapedString writes s as a JSON string exactly as
// encoding/json would (HTML escaping on): \n, \r, \t short forms,
// \u00xx for the other control bytes and for < > &, \ufffd for
// invalid UTF-8, \u2028 and \u2029 escaped, everything else verbatim.
func writeEscapedString(b *bytes.Buffer, s string) {
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b.WriteString(s[start:i])
			writeEscapedByte(b, c)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			b.WriteString(s[start:i])
			writeEscapedRune(b, r)
			i += size
			start = i
			continue
		}
		i += size
	}
	b.WriteString(s[start:])
	b.WriteByte('"')
}

// writeEscapedBytes is writeEscapedString over a byte slice.
func writeEscapedBytes(b *bytes.Buffer, s []byte) {
	b.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b.Write(s[start:i])
			writeEscapedByte(b, c)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
			b.Write(s[start:i])
			writeEscapedRune(b, r)
			i += size
			start = i
			continue
		}
		i += size
	}
	b.Write(s[start:])
	b.WriteByte('"')
}

func writeEscapedByte(b *bytes.Buffer, c byte) {
	switch c {
	case '\\', '"':
		b.WriteByte('\\')
		b.WriteByte(c)
	case '\n':
		b.WriteString(`\n`)
	case '\r':
		b.WriteString(`\r`)
	case '\t':
		b.WriteString(`\t`)
	default: // other control bytes, and < > & under HTML escaping
		b.WriteString(`\u00`)
		b.WriteByte(hexDigits[c>>4])
		b.WriteByte(hexDigits[c&0xF])
	}
}

func writeEscapedRune(b *bytes.Buffer, r rune) {
	switch r {
	case '\u2028':
		b.WriteString(`\u2028`)
	case '\u2029':
		b.WriteString(`\u2029`)
	default: // utf8.RuneError for an invalid byte
		b.WriteString(`\ufffd`)
	}
}
