package main

import (
	"io"
	"time"

	"bioperfload/internal/sim"
)

// timedObserver wraps a sim.BatchObserver and accumulates the time
// spent inside its ObserveBatch and the events it saw. The simulator
// delivers batches from one goroutine, so no locking is needed.
type timedObserver struct {
	inner  sim.BatchObserver
	busy   time.Duration
	events uint64
}

func (t *timedObserver) ObserveBatch(evs []sim.Event) {
	start := time.Now()
	t.inner.ObserveBatch(evs)
	t.busy += time.Since(start)
	t.events += uint64(len(evs))
}

// timedWriter wraps an io.Writer and accumulates the time spent in
// Write and the bytes written.
type timedWriter struct {
	inner io.Writer
	busy  time.Duration
	bytes int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.inner.Write(p)
	t.busy += time.Since(start)
	t.bytes += int64(n)
	return n, err
}
