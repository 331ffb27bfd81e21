package bitstring

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueString(t *testing.T) {
	var s String
	if s.Len() != 0 {
		t.Errorf("zero String Len = %d, want 0", s.Len())
	}
	if !s.Empty() {
		t.Error("zero String should be empty")
	}
	if got := s.String(); got != "" {
		t.Errorf("zero String renders %q, want empty", got)
	}
}

func TestFromBitsAndBit(t *testing.T) {
	s := FromBits(1, 0, 1, 1, 0)
	want := []bool{true, false, true, true, false}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for i, w := range want {
		if s.Bit(i) != w {
			t.Errorf("Bit(%d) = %v, want %v", i, s.Bit(i), w)
		}
	}
	if got := s.String(); got != "10110" {
		t.Errorf("String() = %q, want %q", got, "10110")
	}
}

func TestParse(t *testing.T) {
	tests := []struct {
		in      string
		wantErr bool
	}{
		{"", false},
		{"0", false},
		{"1", false},
		{"010101110", false},
		{"01x0", true},
		{"2", true},
		{" 01", true},
	}
	for _, tc := range tests {
		s, err := Parse(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", tc.in, err)
			continue
		}
		if got := s.String(); got != tc.in {
			t.Errorf("Parse(%q).String() = %q", tc.in, got)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		var sb strings.Builder
		for _, b := range raw {
			if b&1 == 0 {
				sb.WriteByte('0')
			} else {
				sb.WriteByte('1')
			}
		}
		text := sb.String()
		s, err := Parse(text)
		return err == nil && s.String() == text && s.Len() == len(text)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bit out of range did not panic")
		}
	}()
	FromBits(1, 0).Bit(2)
}

func TestEqual(t *testing.T) {
	a := FromBits(1, 0, 1)
	b := FromBits(1, 0, 1)
	c := FromBits(1, 0, 0)
	d := FromBits(1, 0)
	if !a.Equal(b) {
		t.Error("identical strings not Equal")
	}
	if a.Equal(c) {
		t.Error("different bits reported Equal")
	}
	if a.Equal(d) {
		t.Error("different lengths reported Equal")
	}
}

func TestConcat(t *testing.T) {
	a := FromBits(1, 0)
	b := FromBits(0, 1, 1)
	got := a.Concat(b)
	if got.String() != "10011" {
		t.Errorf("Concat = %q, want 10011", got.String())
	}
	// Concatenation with the empty string is the identity.
	var empty String
	if !a.Concat(empty).Equal(a) || !empty.Concat(a).Equal(a) {
		t.Error("concat with empty string is not identity")
	}
}

func TestConcatAssociativeProperty(t *testing.T) {
	f := func(x, y, z uint16) bool {
		var wx, wy, wz Writer
		wx.WriteFixed(uint64(x), 16)
		wy.WriteFixed(uint64(y), 16)
		wz.WriteFixed(uint64(z), 16)
		a, b, c := wx.String(), wy.String(), wz.String()
		return a.Concat(b).Concat(c).Equal(a.Concat(b.Concat(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlice(t *testing.T) {
	s, err := Parse("0110100")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Slice(1, 4).String(); got != "110" {
		t.Errorf("Slice(1,4) = %q, want 110", got)
	}
	if got := s.Slice(0, s.Len()).String(); got != "0110100" {
		t.Errorf("full slice = %q", got)
	}
	if got := s.Slice(3, 3).Len(); got != 0 {
		t.Errorf("empty slice Len = %d", got)
	}
}

func TestWriteFixedReadFixedRoundTrip(t *testing.T) {
	f := func(v uint64, widthSeed uint8) bool {
		width := int(widthSeed%64) + 1
		v &= (1 << uint(width)) - 1
		var w Writer
		w.WriteFixed(v, width)
		s := w.String()
		if s.Len() != width {
			return false
		}
		got, err := NewReader(s).ReadFixed(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteFixedPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WriteFixed overflow did not panic")
		}
	}()
	var w Writer
	w.WriteFixed(4, 2)
}

func TestReaderShortRead(t *testing.T) {
	r := NewReader(FromBits(1, 0))
	if _, err := r.ReadFixed(3); !errors.Is(err, ErrShortRead) {
		t.Errorf("ReadFixed past end: err = %v, want ErrShortRead", err)
	}
	// A failed wide read must not consume the Reader's remaining bits
	// guarantee for subsequent valid reads of what is left.
	r2 := NewReader(FromBits(1))
	if _, err := r2.ReadBit(); err != nil {
		t.Fatalf("first ReadBit failed: %v", err)
	}
	if _, err := r2.ReadBit(); !errors.Is(err, ErrShortRead) {
		t.Errorf("ReadBit past end: err = %v, want ErrShortRead", err)
	}
}

func TestReaderPositions(t *testing.T) {
	s := FromBits(1, 0, 1, 1)
	r := NewReader(s)
	if r.Remaining() != 4 || r.Pos() != 0 {
		t.Fatalf("fresh reader Remaining=%d Pos=%d", r.Remaining(), r.Pos())
	}
	if _, err := r.ReadFixed(3); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 1 || r.Pos() != 3 {
		t.Errorf("after 3 bits Remaining=%d Pos=%d", r.Remaining(), r.Pos())
	}
}

func TestNum2(t *testing.T) {
	tests := []struct {
		w    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 40, 41},
	}
	for _, tc := range tests {
		if got := Num2(tc.w); got != tc.want {
			t.Errorf("Num2(%d) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

func TestWriterSnapshotIsolation(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	snap := w.String()
	w.WriteBit(false)
	w.WriteBit(true)
	if snap.Len() != 1 || !snap.Bit(0) {
		t.Error("snapshot mutated by later writes")
	}
	if w.Len() != 3 {
		t.Errorf("writer Len = %d, want 3", w.Len())
	}
}

func TestLongStringsCrossWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w Writer
	ref := make([]bool, 0, 1000)
	for i := 0; i < 1000; i++ {
		b := rng.Intn(2) == 1
		w.WriteBit(b)
		ref = append(ref, b)
	}
	s := w.String()
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, b := range ref {
		if s.Bit(i) != b {
			t.Fatalf("Bit(%d) = %v, want %v", i, s.Bit(i), b)
		}
	}
}

// TestFixedFieldsMatchBitByBit: WriteFixed and ReadFixed move a field a
// word at a time; at every offset and width they must agree with writing
// and reading it one bit at a time, most significant bit first.
func TestFixedFieldsMatchBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		var fast, slow Writer
		lead := rng.Intn(130)
		for i := 0; i < lead; i++ {
			b := rng.Intn(2) == 1
			fast.WriteBit(b)
			slow.WriteBit(b)
		}
		width := rng.Intn(65)
		v := rng.Uint64()
		if width < 64 {
			v &= 1<<uint(width) - 1
		}
		fast.WriteFixed(v, width)
		for i := width - 1; i >= 0; i-- {
			slow.WriteBit(v>>uint(i)&1 == 1)
		}
		fast.WriteBit(true) // a bit after the field lands after it
		slow.WriteBit(true)
		if f, s := fast.String(), slow.String(); !f.Equal(s) {
			t.Fatalf("lead %d width %d value %d: WriteFixed wrote %s, bit by bit %s", lead, width, v, f, s)
		}
		r := NewReader(slow.String())
		for i := 0; i < lead; i++ {
			r.ReadBit()
		}
		if got, err := r.ReadFixed(width); err != nil || got != v {
			t.Fatalf("lead %d width %d: ReadFixed = %d, %v; want %d", lead, width, got, err, v)
		}
		if b, err := r.ReadBit(); err != nil || !b {
			t.Fatalf("lead %d width %d: the bit after the field reads %v, %v", lead, width, b, err)
		}
	}
}

// TestArenaStringsMatchSnapshots: strings written through an Arena equal
// the Writer.String snapshots of the same bits, empty ones included, and
// an arena sized by NewArena allocates as often for 550 strings as for
// 11: nothing per string.
func TestArenaStringsMatchSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lengths := []int{0, 1, 63, 64, 65, 0, 0, 200, 7, 128, 0}
	bits := 0
	for _, n := range lengths {
		bits += n
	}
	// The zero Arena grows its words as it goes, so the strings cut
	// before a growth keep the old array.
	for _, arena := range []Arena{NewArena(make([]String, 0, len(lengths)), bits), {}} {
		var want []String
		for _, n := range lengths {
			w := arena.Begin()
			var snap Writer
			for i := 0; i < n; i++ {
				b := rng.Intn(2) == 1
				w.WriteBit(b)
				snap.WriteBit(b)
			}
			want = append(want, snap.String())
		}
		got := arena.Strings()
		if len(got) != len(want) {
			t.Fatalf("%d strings, want %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) || got[i].String() != want[i].String() {
				t.Errorf("string %d: arena %s, snapshot %s", i, got[i], want[i])
			}
		}
	}
	grown := func(copies int) float64 {
		var a Arena
		return testing.AllocsPerRun(20, func() {
			a = NewArena(make([]String, 0, copies*len(lengths)), copies*bits)
			for c := 0; c < copies; c++ {
				for _, n := range lengths {
					w := a.Begin()
					for i := 0; i < n; i++ {
						w.WriteBit(i%3 == 0)
					}
				}
			}
		})
	}
	if one, many := grown(1), grown(50); one != many {
		t.Errorf("a grown arena allocates %.0f times for %d strings but %.0f for %d", one, len(lengths), many, 50*len(lengths))
	}
}
