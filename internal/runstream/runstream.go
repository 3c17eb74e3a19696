// Package runstream defines the column-oriented chunk stream the
// block-characterized replay engine consumes: dictionary run tokens
// plus the taken and address columns of one trace chunk, without the
// per-event record materialization of a full decode. The trace package
// produces it (trace.IndexedReader.Columns) and loadchar consumes it
// (loadchar.AnalyzeRuns); keeping the types here breaks what would
// otherwise be an import cycle between the two.
package runstream

// Run is one maximal straight-line PC run: N events whose PCs are
// PC, PC+1, ..., PC+N-1, in commit order.
type Run struct {
	PC int32
	N  int32
}

// Token is one run-dictionary reference in a chunk's token stream:
// the run Dict.Runs[ID] executed Rep times back to back. Adjacent
// tokens never share an ID (the encoder merges them), so Rep > 1 is
// exactly the tight-loop case the block-characterized engine turns
// into counter multiplies.
type Token struct {
	ID  int32
	Rep int32
}

// Dict is the static run dictionary of a trace: the deduplicated
// vocabulary of straight-line PC runs its token streams reference. It
// is immutable once published and shared by every chunk of one trace.
type Dict struct {
	Runs []Run
}

// Chunk is the column view of one trace chunk. Expanding the tokens
// against the dictionary reproduces exactly the PC sequence a full
// event decode yields.
type Chunk struct {
	// Base is the sequence number of the chunk's first event.
	Base uint64
	// N is the event count.
	N int
	// Dict is the trace-wide run dictionary. It is shared across
	// chunks and must not be mutated.
	Dict *Dict
	// Tokens is the chunk's PC sequence as dictionary references.
	Tokens []Token
	// BrTaken is the branch-outcome bitmap: one bit per
	// conditional-branch event, in commit order (bit i set ⇔ the
	// chunk's i-th dynamic conditional branch was taken).
	BrTaken []byte
	// Addrs holds the effective addresses of the chunk's memory-class
	// (load/store) events in commit order, one entry per memory event
	// (zero addresses included), so a cursor advances once per memory
	// offset with no bitmap test.
	Addrs []uint64
}

// Source streams Chunks in commit order. Next returns the next chunk
// and a release function that recycles its buffers; it returns io.EOF
// after the final chunk. Close releases underlying resources and may
// be called at any time, including before EOF.
type Source interface {
	Next() (*Chunk, func(), error)
	Close()
}
