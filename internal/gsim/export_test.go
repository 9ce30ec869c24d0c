package gsim

import "context"

// runChunked runs the event engine split into the given number of vector
// chunks instead of one per CPU, the one-chunk fallbacks still applying.
func runChunked(m *Model, vectors []Vector, chunks int) (*Result, error) {
	return (&eventEngine{m: m}).run(context.Background(), vectors, chunks)
}
