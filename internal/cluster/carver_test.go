package cluster

import "testing"

// FuzzCarve fuzzes the carver that partitions every run. For any unit
// count, done mask (bit i of the mask marks unit i resumed) and sequence
// of requested sizes (cycled, biased below zero to exercise the clamp),
// the carved shards must hold every not-done unit exactly once and no done
// unit, carry indexes 0, 1, 2, …, and hold between 1 and the requested
// number of units, ending short only at a done unit or at the end.
func FuzzCarve(f *testing.F) {
	f.Add(uint16(10), []byte{}, []byte{11, 9, 12, 9, 13})
	f.Add(uint16(240), []byte{0xff, 0, 0x0f}, []byte{12, 32, 32, 32})
	f.Add(uint16(5), []byte{0x1f}, []byte{})
	f.Add(uint16(0), []byte{}, []byte{15})
	f.Add(uint16(33), []byte{0xaa, 0x55, 0x81}, []byte{8, 9, 10})
	f.Add(uint16(64), []byte{0x01, 0, 0, 0, 0, 0, 0, 0x80}, []byte{255})
	f.Fuzz(func(t *testing.T, n uint16, mask, raw []byte) {
		total := int(n)
		done := make([]bool, total)
		for i := range done {
			done[i] = i/8 < len(mask) && mask[i/8]>>(i%8)&1 == 1
		}
		cv := newCarver(total, done)
		carved := make([]bool, total)
		for k := 0; ; k++ {
			want := 1
			if len(raw) > 0 {
				want = int(raw[k%len(raw)]) - 8
			}
			left := cv.left
			sh, ok := cv.carve(want)
			if !ok {
				if left != 0 {
					t.Fatalf("carver stopped with %d units uncarved", left)
				}
				break
			}
			want = max(want, 1)
			if sh.Index != k {
				t.Fatalf("shard %d has index %d", k, sh.Index)
			}
			if sh.Len() < 1 || sh.Len() > want {
				t.Fatalf("%v holds %d units, requested %d", sh, sh.Len(), want)
			}
			if sh.Len() < want && sh.End < total && !done[sh.End] {
				t.Fatalf("%v is short of %d units before a runnable unit", sh, want)
			}
			if cv.left != left-sh.Len() {
				t.Fatalf("after %v: %d units left, want %d", sh, cv.left, left-sh.Len())
			}
			for i := sh.Start; i < sh.End; i++ {
				if done[i] {
					t.Fatalf("%v holds done unit %d", sh, i)
				}
				if carved[i] {
					t.Fatalf("%v carves unit %d a second time", sh, i)
				}
				carved[i] = true
			}
		}
		for i := range done {
			if !done[i] && !carved[i] {
				t.Fatalf("unit %d is neither done nor carved", i)
			}
		}
	})
}
