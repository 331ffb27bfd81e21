package cluster

import (
	"testing"

	"oraclesize/internal/campaign"
)

// FuzzCarve fuzzes the carver that partitions every run. A fuzzed spec
// (aligned task grids of named or registered schemes, or grids of unequal
// scheme counts, with or without experiment replays), a done mask (bit i
// marks unit i resumed) and a sequence of requested sizes (cycled, biased
// below zero to exercise the clamp) are carved for two alternating
// workers, the second of which may stop asking. Every not-done unit must
// be leased exactly once and no done unit, and shards carry indexes 0, 1,
// 2, …. A fresh carve is the sequential carve over the units neither done
// nor reserved, ending at its grid's end when carving in twins. With
// pinned sizes or unaligned grids nothing is reserved, so every shard is
// a run's carve without twins. Otherwise a twin is one whole run of one
// reserved range, a worker leases its own twins before anything else, and
// a twin goes to another worker only once nothing else is left for that
// worker: while its carver keeps asking, only at the very end.
func FuzzCarve(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{}, []byte{11, 9, 12, 9, 13}, uint8(0), false)
	f.Add(uint8(40), uint8(3), []byte{0xff, 0, 0x0f}, []byte{12, 32, 32, 32}, uint8(2), false)
	f.Add(uint8(4), uint8(4), []byte{0x1f}, []byte{}, uint8(0), false)
	f.Add(uint8(7), uint8(32), []byte{0xaa, 0x55, 0x81}, []byte{8, 9, 10}, uint8(1), false)
	f.Add(uint8(30), uint8(5), []byte{0x01, 0, 0, 0, 0, 0, 0, 0x80}, []byte{255}, uint8(3), true)
	f.Add(uint8(12), uint8(58), []byte{0xf0, 0x0f}, []byte{14, 13}, uint8(0), true)
	f.Add(uint8(10), uint8(6), []byte{}, []byte{12}, uint8(1), false)
	f.Add(uint8(42), uint8(43), []byte{0x30}, []byte{48}, uint8(65), false)
	forms := [][]campaign.TaskSpec{
		{{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"light-tree", "flooding"}},
			{Task: "election", Schemes: []string{"marked-tree", "max-label-flood"}}},
		// Registered schemes: three each.
		{{Task: "wakeup"}, {Task: "broadcast"}, {Task: "election"}},
		// Unequal scheme counts.
		{{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"flooding"}},
			{Task: "election", Schemes: []string{"marked-tree"}}},
	}
	f.Fuzz(func(t *testing.T, trials, layout uint8, mask, raw []byte, quit uint8, pinned bool) {
		l := int(layout)
		spec := &campaign.Spec{
			Name:        "fuzz",
			Trials:      1 + int(trials%48),
			Families:    []string{"path"},
			Sizes:       []int{8, 16, 32}[:1+l/9%3],
			Tasks:       forms[l%3][:1+l/3%3],
			Experiments: []string{"E1", "E3"}[:l/27%3],
		}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		total := int(spec.UnitCount())
		done := make([]bool, total)
		for i := range done {
			done[i] = i/8 < len(mask) && mask[i/8]>>(i%8)&1 == 1
		}
		cv := newCarver(spec, done, !pinned)
		grids, size := spec.Grids()
		twinned := 0 // end of the grids carved in twins
		if !pinned && grids > 1 && size > 0 {
			twinned = grids * size
		}

		a, b := &worker{url: "a"}, &worker{url: "b"}
		owner := make([]*worker, total) // the worker a twin unit was reserved for
		resv := make([]int, total)      // its reserved range: shard index × grids + grid
		leased := make([]bool, total)
		free := func(i int) bool { return !done[i] && !leased[i] && owner[i] == nil }
		seq, bAsks := 0, 0 // the sequential carve's next unit; b's requests
		for k := 0; ; k++ {
			w := a
			if k%2 == 1 && (quit == 0 || bAsks < int(quit)) {
				w = b
				bAsks++
			}
			want := 1
			if len(raw) > 0 {
				want = int(raw[k%len(raw)]) - 8
			}
			ownLeft, freeLeft := 0, 0
			for i := range done {
				if free(i) {
					freeLeft++
				} else if owner[i] == w && !leased[i] {
					ownLeft++
				}
			}
			left := cv.left
			sh, ok := cv.carve(w, want)
			if !ok {
				if left != 0 {
					t.Fatalf("carver stopped with %d units unleased", left)
				}
				break
			}
			if sh.Index != k {
				t.Fatalf("shard %d has index %d", k, sh.Index)
			}
			if sh.Len() < 1 || sh.Start < 0 || sh.End > total {
				t.Fatalf("%v is empty or out of [0,%d)", sh, total)
			}
			if cv.left != left-sh.Len() {
				t.Fatalf("after %v: %d units left, want %d", sh, cv.left, left-sh.Len())
			}
			for i := sh.Start; i < sh.End; i++ {
				if done[i] || leased[i] {
					t.Fatalf("%v leases unit %d, which is done or leased", sh, i)
				}
			}

			if owner[sh.Start] == nil {
				// A fresh carve: the sequential carve over the free units.
				if ownLeft > 0 {
					t.Fatalf("%s carved %v while holding %d twin units", w.url, sh, ownLeft)
				}
				for seq < total && !free(seq) {
					seq++
				}
				stop, grid := total, grids
				if seq < twinned {
					grid = seq / size
					stop = (grid + 1) * size
				}
				end := seq
				for end < stop && end-seq < max(want, 1) && free(end) {
					end++
				}
				if sh.Start != seq || sh.End != end {
					t.Fatalf("%s carved %v, want the sequential carve [%d,%d)", w.url, sh, seq, end)
				}
				for i := sh.Start; i < sh.End; i++ {
					leased[i] = true
				}
				for g := grid + 1; g < grids && twinned > 0; g++ {
					for i := sh.Start; i < sh.End; i++ {
						if j := i + (g-grid)*size; free(j) {
							owner[j], resv[j] = w, k*grids+g
						}
					}
				}
				continue
			}

			c, r := owner[sh.Start], resv[sh.Start]
			for i := sh.Start; i < sh.End; i++ {
				if owner[i] != c || resv[i] != r {
					t.Fatalf("%v spans two reserved ranges", sh)
				}
				leased[i] = true
			}
			for _, i := range []int{sh.Start - 1, sh.End} {
				if i >= 0 && i < total && !leased[i] && owner[i] == c && resv[i] == r {
					t.Fatalf("%v splits its reserved range at unit %d", sh, i)
				}
			}
			if c != w && (ownLeft > 0 || freeLeft > 0) {
				t.Fatalf("%s leased %v, reserved for %s, with %d free and %d own twin units left",
					w.url, sh, c.url, freeLeft, ownLeft)
			}
		}
		for i := range done {
			if !done[i] && !leased[i] {
				t.Fatalf("unit %d is neither done nor leased", i)
			}
		}
	})
}
