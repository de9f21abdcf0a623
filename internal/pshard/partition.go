// Package pshard shards the block-diagonal Kalman covariance P across
// cluster ranks so the fleet can train models whose covariance exceeds a
// single host's memory.  It holds no filter and no checkpoint of its own:
// a rank's filter is an optimize.KalmanState that owns only some row slabs
// of P, saved and moved as an optimize.SlabCheckpoint, and this package
// decides which slabs and binds them to the ring.
//
//   - Partition deterministically assigns row slabs of the P blocks to
//     ranks; Assignment reports their bytes and the exchange table.
//   - Over binds a rank's state to its ring: GainOwned computes the owned
//     rows of P·g, AllgatherSegments exchanges them, and FinishUpdate
//     applies the identical update on every rank — bitwise equal to the
//     unsharded single-host FEKF (see optimize.KalmanState for why the
//     row form is bitwise).
package pshard

import (
	"fmt"
	"sort"

	"fekf/internal/cluster"
	"fekf/internal/optimize"
)

// Shard is a contiguous row slab [RowLo,RowHi) of one P block: the owner
// rank holds those rows of the Block-th block's n×n covariance.
type Shard = optimize.Slab

// Assignment is a complete partition of the covariance across ranks.
// Owners[r] lists rank r's shards sorted by (Block, RowLo); together the
// shards cover every row of every block exactly once.
type Assignment struct {
	Ranks  int
	Blocks []optimize.Block
	Owners [][]Shard
}

// Partition deterministically assigns the P blocks of the given block
// structure to ranks by size, greedy bin-packing (LPT):
//
//  1. target = ⌈totalBytes/ranks⌉.  Any block larger than the target is
//     pre-split into ⌈blockBytes/target⌉ near-equal contiguous row slabs
//     (boundaries at p·n/parts), because a single paper-sized block (e.g.
//     10240² of the {1350,10240,9760,5301} split) can exceed a fair share
//     on its own.
//  2. Units are sorted by bytes descending (ties: block index, then RowLo
//     ascending) and each is placed on the currently least-loaded rank
//     (ties: lowest rank), the classic longest-processing-time heuristic.
//
// The result is a pure function of (blocks, ranks).  Load bound: every
// unit is at most target + 8n bytes for the widest split block (one row of
// slack from the ceiling), and LPT places each unit on a then-minimal
// rank, so maxLoad − minLoad ≤ the largest unit ≤ ⌈total/ranks⌉ + 8·maxN.
// The partition property tests and FuzzBlockPartition assert exactly this
// bound.
func Partition(blocks []optimize.Block, ranks int) Assignment {
	if ranks <= 0 {
		panic(fmt.Sprintf("pshard: Partition with %d ranks", ranks))
	}
	a := Assignment{Ranks: ranks, Blocks: append([]optimize.Block(nil), blocks...),
		Owners: make([][]Shard, ranks)}
	var total int64
	for _, b := range blocks {
		n := int64(b.Size())
		total += n * n * 8
	}
	if total == 0 {
		return a
	}
	target := (total + int64(ranks) - 1) / int64(ranks)

	var units []Shard
	for bi, b := range blocks {
		n := b.Size()
		bytes := int64(n) * int64(n) * 8
		parts := 1
		if bytes > target {
			parts = int((bytes + target - 1) / target)
		}
		for p := 0; p < parts; p++ {
			lo := p * n / parts
			hi := (p + 1) * n / parts
			if hi > lo {
				units = append(units, Shard{Block: bi, RowLo: lo, RowHi: hi})
			}
		}
	}
	sort.Slice(units, func(i, j int) bool {
		bi, bj := a.ShardBytes(units[i]), a.ShardBytes(units[j])
		if bi != bj {
			return bi > bj
		}
		if units[i].Block != units[j].Block {
			return units[i].Block < units[j].Block
		}
		return units[i].RowLo < units[j].RowLo
	})

	loads := make([]int64, ranks)
	for _, u := range units {
		best := 0
		for r := 1; r < ranks; r++ {
			if loads[r] < loads[best] {
				best = r
			}
		}
		a.Owners[best] = append(a.Owners[best], u)
		loads[best] += a.ShardBytes(u)
	}
	for r := range a.Owners {
		sort.Slice(a.Owners[r], func(i, j int) bool {
			si, sj := a.Owners[r][i], a.Owners[r][j]
			if si.Block != sj.Block {
				return si.Block < sj.Block
			}
			return si.RowLo < sj.RowLo
		})
	}
	return a
}

// ShardBytes returns the resident bytes of one shard's slab.
func (a Assignment) ShardBytes(s Shard) int64 {
	return int64(s.Rows()) * int64(a.Blocks[s.Block].Size()) * 8
}

// RankBytes returns rank r's total resident P bytes.
func (a Assignment) RankBytes(r int) int64 {
	var total int64
	for _, s := range a.Owners[r] {
		total += a.ShardBytes(s)
	}
	return total
}

// TotalBytes returns the full covariance size: Σ n²·8 over blocks.
func (a Assignment) TotalBytes() int64 {
	var total int64
	for _, b := range a.Blocks {
		n := int64(b.Size())
		total += n * n * 8
	}
	return total
}

// ImbalanceRatio returns maxRankBytes/minRankBytes over the ranks, the
// partition-quality gauge.  If any rank holds nothing (more ranks than
// units) the ratio is reported as 0 rather than +Inf so it stays
// JSON-encodable.
func (a Assignment) ImbalanceRatio() float64 {
	if a.Ranks == 0 {
		return 0
	}
	min, max := a.RankBytes(0), a.RankBytes(0)
	for r := 1; r < a.Ranks; r++ {
		b := a.RankBytes(r)
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

// Segments returns the exchange table for the param-aligned P·g vector:
// one cluster.Segment per shard, offset into the flat parameter space
// (block.Lo + row range), sorted by Lo.  Every rank passes the identical
// table to Ring.AllgatherSegments.
func (a Assignment) Segments() []cluster.Segment {
	var segs []cluster.Segment
	for r, shards := range a.Owners {
		for _, s := range shards {
			lo := a.Blocks[s.Block].Lo
			segs = append(segs, cluster.Segment{Lo: lo + s.RowLo, Hi: lo + s.RowHi, Owner: r})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Lo < segs[j].Lo })
	return segs
}

// ExchangeBytesPerCollective returns the wire payload of one allgather of
// the P·g vector: every row crosses the ring once per gather step, so the
// per-collective payload is the full parameter vector (minus nothing — the
// owner's own rows are counted too, matching the modeled accounting which
// charges the largest owner chunk per ring step).
func (a Assignment) ExchangeBytesPerCollective() int64 {
	if len(a.Blocks) == 0 {
		return 0
	}
	return int64(a.Blocks[len(a.Blocks)-1].Hi) * 8
}

// ReassignBytes returns the P bytes that must move when the partition
// changes from one assignment to another: the rows whose owning rank index
// differs.  Rank indices, not replica identities, are compared — after a
// membership change rank k maps to the k-th surviving replica, so this is
// the transfer volume of the repartition as the autoscaler models it.
func ReassignBytes(from, to Assignment) int64 {
	if len(from.Blocks) != len(to.Blocks) {
		return from.TotalBytes() // structural change: everything moves
	}
	var moved int64
	for bi, b := range from.Blocks {
		n := b.Size()
		if to.Blocks[bi].Size() != n {
			moved += int64(n) * int64(n) * 8
			continue
		}
		fOwner := ownerByRow(from, bi, n)
		tOwner := ownerByRow(to, bi, n)
		for i := 0; i < n; i++ {
			if fOwner[i] != tOwner[i] {
				moved += int64(n) * 8
			}
		}
	}
	return moved
}

func ownerByRow(a Assignment, block, n int) []int {
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for r, shards := range a.Owners {
		for _, s := range shards {
			if s.Block == block {
				for i := s.RowLo; i < s.RowHi; i++ {
					owner[i] = r
				}
			}
		}
	}
	return owner
}
