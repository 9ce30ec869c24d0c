//go:build !unix

package obs

// Platforms without getrusage report no process CPU or peak RSS; cost
// reports degrade to wall/alloc/counter attribution and run summaries
// carry no peak RSS.
func processCPUSeconds() float64 { return 0 }

func peakRSSBytes() uint64 { return 0 }
