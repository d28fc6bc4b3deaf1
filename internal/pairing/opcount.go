package pairing

import "sync/atomic"

// OpCounts is a snapshot (or a delta between two snapshots) of the
// package's process-wide pairing counters. A cost stated as a number of
// pairings, such as Eq. 1's n_A + 2·|rows used|, is pinned with them
// exactly, where wall time would only order it. The counters are
// cumulative for the life of the process, so every goroutine's pairings
// show up in a delta.
type OpCounts struct {
	// MillerPasses counts Miller loops: one per Pair, PreparedG.Pair and
	// PreparedG.PairMul, however many factors the pass multiplies.
	MillerPasses uint64
	// PreparedWalks counts the passes among them that walked a PreparedG's
	// cached lines.
	PreparedWalks uint64
	// FinalExps counts final exponentiations.
	FinalExps uint64
}

var millerPasses, preparedWalks, finalExps atomic.Uint64

// SnapshotOpCounts returns the cumulative counters. Subtract two snapshots
// with Delta to count the pairings of a region of code.
func SnapshotOpCounts() OpCounts {
	return OpCounts{
		MillerPasses:  millerPasses.Load(),
		PreparedWalks: preparedWalks.Load(),
		FinalExps:     finalExps.Load(),
	}
}

// Delta returns c − since, field by field.
func (c OpCounts) Delta(since OpCounts) OpCounts {
	return OpCounts{
		MillerPasses:  c.MillerPasses - since.MillerPasses,
		PreparedWalks: c.PreparedWalks - since.PreparedWalks,
		FinalExps:     c.FinalExps - since.FinalExps,
	}
}
