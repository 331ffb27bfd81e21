// Package bitstring provides bit-exact binary strings and the self-delimiting
// integer codes used by the oracle constructions of Fraigniaud, Ilcinkas and
// Pelc (PODC 2006).
//
// Oracle size in the paper is measured in bits, so this package stores advice
// as packed bit sequences with an exact length, rather than as byte slices.
// It implements the paper's doubled-bit code β (each bit of the binary
// representation doubled, terminated by "10"), Elias gamma and delta codes,
// unary codes and fixed-width fields, together with the length function
// #2(w) used throughout Section 3 of the paper.
package bitstring

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// ErrShortRead is returned when a Reader runs out of bits mid-field.
var ErrShortRead = errors.New("bitstring: read past end of string")

// ErrMalformed is returned when a self-delimiting code cannot be parsed.
var ErrMalformed = errors.New("bitstring: malformed code")

// String is a sequence of bits of exact length. The zero value is the empty
// string and is ready to use. A String is immutable once shared; builders
// should use a Writer.
type String struct {
	words []uint64
	n     int
}

// FromBits builds a String from a slice of 0/1 values.
func FromBits(vals ...byte) String {
	var w Writer
	for _, v := range vals {
		w.WriteBit(v != 0)
	}
	return w.String()
}

// Parse builds a String from a textual form such as "010110". It accepts only
// the characters '0' and '1'.
func Parse(s string) (String, error) {
	var w Writer
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			w.WriteBit(false)
		case '1':
			w.WriteBit(true)
		default:
			return String{}, fmt.Errorf("bitstring: invalid character %q at offset %d", s[i], i)
		}
	}
	return w.String(), nil
}

// Len reports the number of bits in the string.
func (s String) Len() int { return s.n }

// Empty reports whether the string has no bits.
func (s String) Empty() bool { return s.n == 0 }

// Bit returns the i-th bit (0-based). It panics if i is out of range, in line
// with slice indexing.
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, s.n))
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// String renders the bits as a sequence of '0' and '1' characters.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Equal reports whether two strings have identical bits.
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Concat returns the concatenation s·t.
func (s String) Concat(t String) String {
	var w Writer
	w.WriteString(s)
	w.WriteString(t)
	return w.String()
}

// Slice returns the substring of bits in [from, to).
func (s String) Slice(from, to int) String {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitstring: slice [%d,%d) out of range [0,%d)", from, to, s.n))
	}
	var w Writer
	for i := from; i < to; i++ {
		w.WriteBit(s.Bit(i))
	}
	return w.String()
}

// Writer accumulates bits. The zero value is ready to use.
type Writer struct {
	words []uint64
	n     int
}

// Reset empties the writer while keeping its buffer, so one Writer can
// encode many strings without reallocating.
func (w *Writer) Reset() {
	clear(w.words)
	w.words = w.words[:0]
	w.n = 0
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	idx := w.n >> 6
	if idx == len(w.words) {
		w.words = append(w.words, 0)
	}
	if b {
		w.words[idx] |= 1 << (uint(w.n) & 63)
	}
	w.n++
}

// WriteString appends all bits of s.
func (w *Writer) WriteString(s String) {
	for i := 0; i < s.n; i++ {
		w.WriteBit(s.Bit(i))
	}
}

// WriteFixed appends v as an unsigned big-endian field of the given width.
// It panics if v does not fit, since advice encoders choose widths that are
// provably sufficient.
func (w *Writer) WriteFixed(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstring: invalid field width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstring: value %d does not fit in %d bits", v, width))
	}
	if width == 0 {
		return
	}
	// The field's first (most significant) bit goes lowest: reversed, v's
	// bit width-1-j lands at bit j of chunk.
	chunk := bits.Reverse64(v) >> uint(64-width)
	if off := uint(w.n & 63); off == 0 {
		w.words = append(w.words, chunk)
	} else {
		w.words[len(w.words)-1] |= chunk << off
		if int(off)+width > 64 {
			w.words = append(w.words, chunk>>(64-off))
		}
	}
	w.n += width
}

// Len reports the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// String returns the accumulated bits. The Writer may keep being used; the
// returned String is a snapshot.
func (w *Writer) String() String {
	words := make([]uint64, len(w.words))
	copy(words, w.words)
	return String{words: words, n: w.n}
}

// Arena writes many strings into one word array and hands them out as
// Strings that share it: where one Writer.String snapshot per string
// allocates once per string, an Arena allocates only as its array grows.
// Every string starts on a word boundary, so each holds exactly the words
// a snapshot would, and readers and decoders cannot tell them apart. The
// zero value is ready to use.
type Arena struct {
	w Writer
	// strs holds the strings closed so far. A string is cut from the
	// words when the next Begin or Strings closes it: no later write
	// touches an earlier string's words, so the cut holds even when the
	// array grows.
	strs  []String
	start int // the open string's first bit
	open  bool
}

// NewArena returns an Arena that appends its strings to dst, with room
// for bits bits in all across the cap(dst)-len(dst) strings dst has room
// for, so an arena sized up front allocates its words once.
func NewArena(dst []String, bits int) Arena {
	// Each string may end in a partial word.
	return Arena{w: Writer{words: make([]uint64, 0, bits/64+cap(dst)-len(dst))}, strs: dst}
}

// Begin closes the string being written, if any, and returns the Writer
// for the next one, positioned at a word boundary.
func (a *Arena) Begin() *Writer {
	a.close()
	a.w.n = (a.w.n + 63) &^ 63
	a.start, a.open = a.w.n, true
	return &a.w
}

func (a *Arena) close() {
	if !a.open {
		return
	}
	a.open = false
	if a.start == a.w.n {
		a.strs = append(a.strs, String{})
		return
	}
	lo, hi := a.start>>6, (a.w.n+63)>>6
	a.strs = append(a.strs, String{words: a.w.words[lo:hi:hi], n: a.w.n - a.start})
}

// Strings closes the string being written and returns every string begun,
// in order, after the arena's dst. The Strings share the arena's words;
// after Strings the Arena must not be written to again.
func (a *Arena) Strings() []String {
	a.close()
	return a.strs
}

// Reader consumes bits from a String front to back.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader over s.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Reset points the reader at s from the start. It lets decoders keep a
// stack-allocated Reader value instead of heap-allocating via NewReader.
func (r *Reader) Reset(s String) {
	r.s = s
	r.pos = 0
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// Pos reports the number of bits consumed so far.
func (r *Reader) Pos() int { return r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.pos >= r.s.n {
		return false, ErrShortRead
	}
	b := r.s.words[r.pos>>6]&(1<<(uint(r.pos)&63)) != 0
	r.pos++
	return b, nil
}

// ReadFixed consumes a big-endian unsigned field of the given width.
func (r *Reader) ReadFixed(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitstring: invalid field width %d", width)
	}
	if r.Remaining() < width {
		return 0, ErrShortRead
	}
	if width == 0 {
		return 0, nil
	}
	// Gather the field with its first bit lowest, then reverse it into
	// big-endian order, as WriteFixed wrote it.
	i, off := r.pos>>6, uint(r.pos&63)
	chunk := r.s.words[i] >> off
	if int(off)+width > 64 {
		chunk |= r.s.words[i+1] << (64 - off)
	}
	r.pos += width
	return bits.Reverse64(chunk) >> uint(64-width), nil
}

// Num2 is the paper's #2(w): the number of bits of the standard binary
// representation of the non-negative integer w, with #2(w) = 1 for w <= 1.
func Num2(w uint64) int {
	if w <= 1 {
		return 1
	}
	return bits.Len64(w)
}
