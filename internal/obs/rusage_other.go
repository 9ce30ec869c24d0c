//go:build !unix

package obs

// Platforms without getrusage report no peak RSS; run summaries carry
// none.
func peakRSSBytes() uint64 { return 0 }
