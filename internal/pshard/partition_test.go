package pshard

import (
	"fmt"
	"reflect"
	"testing"

	"fekf/internal/optimize"
)

// blocksOf builds a contiguous block structure from per-block sizes.
func blocksOf(sizes []int) []optimize.Block {
	var blocks []optimize.Block
	lo := 0
	for _, n := range sizes {
		blocks = append(blocks, optimize.Block{Lo: lo, Hi: lo + n})
		lo += n
	}
	return blocks
}

// paperSizes is the paper's gather-and-split block structure (Section
// 3.4): layer parameter counts gathered to the 10240 threshold.
var paperSizes = []int{1350, 10240, 9760, 5301}

// checkPartition asserts the documented partition properties for one
// (blocks, ranks) input: exact coverage, determinism, sorted owners, and
// the LPT load bound maxLoad − minLoad ≤ maxShard ≤ ⌈total/R⌉ + 8·maxN.
func checkPartition(t *testing.T, sizes []int, ranks int) {
	t.Helper()
	blocks := blocksOf(sizes)
	a := Partition(blocks, ranks)
	if err := validateAssignment(a); err != nil {
		t.Fatalf("sizes %v ranks %d: %v", sizes, ranks, err)
	}
	if b := Partition(blocks, ranks); !reflect.DeepEqual(a, b) {
		t.Fatalf("sizes %v ranks %d: partition not deterministic", sizes, ranks)
	}
	for r, shards := range a.Owners {
		for i := 1; i < len(shards); i++ {
			prev, cur := shards[i-1], shards[i]
			if cur.Block < prev.Block || (cur.Block == prev.Block && cur.RowLo < prev.RowLo) {
				t.Fatalf("rank %d shards not sorted: %+v", r, shards)
			}
		}
	}
	var min, max int64
	for r := 0; r < ranks; r++ {
		b := a.RankBytes(r)
		if r == 0 || b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	total := a.TotalBytes()
	if total == 0 {
		return
	}
	target := (total + int64(ranks) - 1) / int64(ranks)
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	bound := target + 8*int64(maxN)
	var ms int64
	for _, shards := range a.Owners {
		for _, s := range shards {
			if b := a.ShardBytes(s); b > ms {
				ms = b
			}
		}
	}
	if ms > bound {
		t.Fatalf("sizes %v ranks %d: max shard %d exceeds bound %d", sizes, ranks, ms, bound)
	}
	if spread := max - min; spread > ms {
		t.Fatalf("sizes %v ranks %d: load spread %d exceeds max shard %d",
			sizes, ranks, spread, ms)
	}
}

func TestPartitionProperties(t *testing.T) {
	cases := [][]int{
		{1},
		{5},
		{3, 3, 3},
		{1, 100},
		{64, 64, 64, 64},
		{7, 19, 2, 31, 11},
		paperSizes,
	}
	for _, sizes := range cases {
		for ranks := 1; ranks <= 6; ranks++ {
			checkPartition(t, sizes, ranks)
		}
	}
}

// TestPartitionPaperBound asserts the issue's memory target: at R=4 on the
// paper's block split, no rank holds more than ~1/3 of the unsharded
// covariance (the largest block alone is 45.6% of the total, so this
// requires the row-slab pre-split — block-granular assignment could not
// meet it).
func TestPartitionPaperBound(t *testing.T) {
	a := Partition(blocksOf(paperSizes), 4)
	total := a.TotalBytes()
	limit := total / 3
	for r := 0; r < 4; r++ {
		if b := a.RankBytes(r); b > limit {
			t.Fatalf("rank %d holds %d bytes > 1/3 of total %d", r, b, total)
		}
	}
	if ratio := a.ImbalanceRatio(); ratio <= 0 || ratio > 2 {
		t.Fatalf("paper split imbalance ratio %v out of expected range", ratio)
	}
}

// TestPartitionMoreRanksThanRows covers the degenerate edge: more ranks
// than partition units leaves some ranks empty (ratio reported as 0, not
// +Inf) while the coverage and bound invariants still hold.
func TestPartitionMoreRanksThanRows(t *testing.T) {
	a := Partition(blocksOf([]int{2}), 5)
	if err := validateAssignment(a); err != nil {
		t.Fatal(err)
	}
	if got := a.ImbalanceRatio(); got != 0 {
		t.Fatalf("imbalance ratio with empty ranks = %v, want 0", got)
	}
}

func TestReassignBytes(t *testing.T) {
	blocks := blocksOf([]int{4, 6})
	from := Partition(blocks, 2)
	if got := ReassignBytes(from, from); got != 0 {
		t.Fatalf("identical assignments move %d bytes, want 0", got)
	}
	to := Partition(blocks, 3)
	moved := ReassignBytes(from, to)
	if moved <= 0 || moved > from.TotalBytes() {
		t.Fatalf("reassign 2->3 ranks moved %d bytes (total %d)", moved, from.TotalBytes())
	}
	// A structural change moves everything.
	other := Partition(blocksOf([]int{4, 7}), 2)
	if got := ReassignBytes(from, other); got != from.TotalBytes() {
		t.Fatalf("structural change moved %d, want total %d", got, from.TotalBytes())
	}
}

// FuzzBlockPartition drives checkPartition's invariants — exact single
// coverage, determinism, sortedness, and the byte-load bound — over
// arbitrary block structures and rank counts.
func FuzzBlockPartition(f *testing.F) {
	f.Add([]byte{10, 20, 30}, 3)
	f.Add([]byte{1}, 1)
	f.Add([]byte{255, 1, 128, 64}, 5)
	f.Fuzz(func(t *testing.T, raw []byte, ranks int) {
		if len(raw) == 0 || len(raw) > 8 {
			t.Skip()
		}
		if ranks < 1 || ranks > 9 {
			t.Skip()
		}
		var sizes []int
		for _, b := range raw {
			sizes = append(sizes, int(b)+1) // 1..256 params per block
		}
		checkPartition(t, sizes, ranks)
	})
}

// validateAssignment checks that a tiles every block's rows exactly once
// with in-range owners.
func validateAssignment(a Assignment) error {
	covered := make([][]bool, len(a.Blocks))
	for i, b := range a.Blocks {
		covered[i] = make([]bool, b.Size())
	}
	for r, shards := range a.Owners {
		if r >= a.Ranks {
			return fmt.Errorf("pshard: owner row %d beyond %d ranks", r, a.Ranks)
		}
		for _, s := range shards {
			if s.Block < 0 || s.Block >= len(a.Blocks) {
				return fmt.Errorf("pshard: shard block %d out of range", s.Block)
			}
			n := a.Blocks[s.Block].Size()
			if s.RowLo < 0 || s.RowHi > n || s.RowLo >= s.RowHi {
				return fmt.Errorf("pshard: shard rows [%d,%d) outside block %d (n=%d)",
					s.RowLo, s.RowHi, s.Block, n)
			}
			for i := s.RowLo; i < s.RowHi; i++ {
				if covered[s.Block][i] {
					return fmt.Errorf("pshard: block %d row %d covered twice", s.Block, i)
				}
				covered[s.Block][i] = true
			}
		}
	}
	for bi, rows := range covered {
		for i, c := range rows {
			if !c {
				return fmt.Errorf("pshard: block %d row %d uncovered", bi, i)
			}
		}
	}
	return nil
}
