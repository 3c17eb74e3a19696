package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bioperfload/internal/bio"
	"bioperfload/internal/bpred"
	"bioperfload/internal/compiler"
	"bioperfload/internal/loadchar"
	"bioperfload/internal/store"
	"bioperfload/internal/trace"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreWarmRestart is the persistence acceptance test: a second
// session opening the same store serves a characterization without
// compiling or simulating — from the persisted snapshot, or by trace
// replay when the snapshot is gone — and the profile is byte-identical
// to the cold run's in every case.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())

	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	prof1, err := s1.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof1.Analysis, 10)
	if st := s1.Stats(); st.Runs != 1 || st.ReplayRuns != 0 || st.ProfileHits != 0 {
		t.Fatalf("cold session stats %+v", st)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the snapshot artifact serves directly.
	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(1, st2)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Runs != 0 || st.Compiles != 0 || st.ProfileHits != 1 || st.ReplayRuns != 0 {
		t.Fatalf("warm session simulated or compiled: %+v", st)
	}
	if prof2.Instructions != prof1.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d", prof2.Instructions, prof1.Instructions)
	}
	got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof2.Analysis, 10)
	if got != want {
		t.Errorf("snapshot profile differs from cold profile:\n--- cold ---\n%s\n--- snapshot ---\n%s", want, got)
	}
	if ss := st2.Stats(); ss.Hits < 1 {
		t.Fatalf("expected store hits, got %+v", ss)
	}

	// Delete the snapshot: the trace remains, so a restart falls back
	// to component-parallel replay (jobs > 1) and re-persists the
	// snapshot on the way out.
	st3 := openStore(t, dir)
	defer st3.Close()
	st3.Delete(profKey(fp, bio.SizeTest))
	s3 := NewSessionWithStore(2, st3)
	prof3, err := s3.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Runs != 0 || st.ReplayRuns != 1 || st.ProfileHits != 0 {
		t.Fatalf("replay session stats %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof3.Analysis, 10); got != want {
		t.Errorf("parallel replay profile differs from cold profile")
	}
	if _, ok := st3.GetBytes(profKey(fp, bio.SizeTest)); !ok {
		t.Fatal("replay did not re-persist the snapshot artifact")
	}

	// Sequential replay (jobs == 1) must also match.
	st4 := openStore(t, dir)
	defer st4.Close()
	st4.Delete(profKey(fp, bio.SizeTest))
	s4 := NewSessionWithStore(1, st4)
	prof4, err := s4.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if st := s4.Stats(); st.Runs != 0 || st.ReplayRuns != 1 {
		t.Fatalf("sequential replay session stats %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof4.Analysis, 10); got != want {
		t.Errorf("sequential replay profile differs from cold profile")
	}
}

// TestStoreCorruptionFallsBackToSimulation flips bits in every stored
// object: the next characterization must detect the damage, evict, and
// silently fall back to a cold (and re-recorded) simulation.
func TestStoreCorruptionFallsBackToSimulation(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}

	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	prof1, err := s1.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof1.Analysis, 10)
	st1.Close()

	// Vandalize every object file.
	err = filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i := range data {
			data[i] ^= 0xa5
		}
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := NewSessionWithStore(1, st2)
	prof2, err := s2.Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatalf("characterize with corrupted store: %v", err)
	}
	if st := s2.Stats(); st.Runs != 1 || st.ReplayRuns != 0 || st.ProfileHits != 0 {
		t.Fatalf("corrupted store did not fall back to simulation: %+v", st)
	}
	if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof2.Analysis, 10); got != want {
		t.Errorf("fallback profile differs from original")
	}

	// The fallback run re-recorded and re-persisted; a third session
	// serves warm again without simulating.
	st3 := openStore(t, dir)
	defer st3.Close()
	s3 := NewSessionWithStore(1, st3)
	if _, err := s3.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Runs != 0 || st.ProfileHits+st.ReplayRuns != 1 {
		t.Fatalf("re-recorded artifacts not served warm: %+v", st)
	}
}

// TestStoreBadBranchPCEvicted stores a well-formed profile artifact
// whose branch table names a PC outside the program: the snapshot tier
// must evict it rather than panic, serve the request by trace replay,
// and re-persist a valid snapshot.
func TestStoreBadBranchPCEvicted(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(p, false, compiler.Default())
	key := profKey(fp, bio.SizeTest)
	for _, pc := range []int32{-1, math.MaxInt32} {
		st := openStore(t, t.TempDir())
		cold, err := NewSessionWithStore(1, st).Characterize(ctx, p, bio.SizeTest)
		if err != nil {
			t.Fatal(err)
		}
		want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), cold.Analysis, 10)

		data, ok := st.GetBytes(key)
		if !ok {
			t.Fatal("cold run persisted no snapshot")
		}
		art, err := decodeProfileArtifact(data, fp)
		if err != nil {
			t.Fatal(err)
		}
		art.Snap.Branches[pc] = bpred.BranchStats{Executed: 1}
		art.Snap.BranchTotal.Executed++
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(art); err != nil {
			t.Fatal(err)
		}
		if err := st.PutBytes(key, buf.Bytes()); err != nil {
			t.Fatal(err)
		}

		s := NewSessionWithStore(1, st)
		prof, err := s.Characterize(ctx, p, bio.SizeTest)
		if err != nil {
			t.Fatalf("pc %d: %v", pc, err)
		}
		if stats := s.Stats(); stats.ProfileHits != 0 || stats.ReplayRuns != 1 || stats.Runs != 0 {
			t.Errorf("pc %d: bad snapshot not evicted to replay: %+v", pc, stats)
		}
		if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof.Analysis, 10); got != want {
			t.Errorf("pc %d: replayed profile differs from the cold one", pc)
		}
		data, ok = st.GetBytes(key)
		if !ok {
			t.Fatalf("pc %d: no snapshot re-persisted", pc)
		}
		if art, err = decodeProfileArtifact(data, fp); err != nil {
			t.Fatal(err)
		}
		if _, bad := art.Snap.Branches[pc]; bad {
			t.Errorf("pc %d: the bad snapshot is still stored", pc)
		}
		st.Close()
	}
}

// TestStoreRetiredTraceFormatReRecords puts a trace in each retired
// format (v1–v3) under a program's trace key: the next characterization
// must evict it, simulate cold, and record a fresh v4 trace in its
// place, with the profile unchanged.
func TestStoreRetiredTraceFormatReRecords(t *testing.T) {
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(1).Characterize(ctx, p, bio.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	want := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), ref.Analysis, 10)
	fp := Fingerprint(p, false, compiler.Default())
	key := traceKey(fp, bio.SizeTest)
	for v := 1; v <= 3; v++ {
		st := openStore(t, t.TempDir())
		// The retired writers are gone, so the header is handcrafted:
		// magic, meta document, meta CRC, then an empty data section.
		meta := fmt.Sprintf(`{"program":%q,"fingerprint":%q,"size":"test","chunk_events":16384,"compression":"flate"}`, p.Name, fp)
		old := []byte(fmt.Sprintf("BPTRACE%d", v))
		old = binary.AppendUvarint(old, uint64(len(meta)))
		old = append(old, meta...)
		old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE([]byte(meta)))
		old = append(old, 0)
		if err := st.PutBytes(key, old); err != nil {
			t.Fatal(err)
		}

		s := NewSessionWithStore(1, st)
		prof, err := s.Characterize(ctx, p, bio.SizeTest)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		if prof.Source != "cold" {
			t.Errorf("v%d: served from %q, want cold", v, prof.Source)
		}
		if stats := s.Stats(); stats.Runs != 1 || stats.ColdChars != 1 || stats.ReplayRuns != 0 {
			t.Errorf("v%d: retired trace not re-simulated: %+v", v, stats)
		}
		if got := loadchar.RenderProfile(p.Name, bio.SizeTest.String(), prof.Analysis, 10); got != want {
			t.Errorf("v%d: profile differs from the reference", v)
		}

		rc, size, ok := st.OpenReader(key)
		if !ok {
			t.Fatalf("v%d: no trace recorded back under the key", v)
		}
		ir, err := trace.NewIndexedReader(rc.(io.ReaderAt), size)
		rc.Close()
		if err != nil {
			t.Fatalf("v%d: recorded-back trace does not open: %v", v, err)
		}
		if ir.TotalEvents() != prof.Instructions {
			t.Errorf("v%d: recorded-back trace holds %d events, run committed %d", v, ir.TotalEvents(), prof.Instructions)
		}
		st.Close()
	}
}

// TestStoreCancellationNotMisreadAsCorruption: a canceled context
// during replay must surface the context error and leave the stored
// trace intact for the next caller.
func TestStoreCancellationNotMisreadAsCorruption(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	p, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	st1 := openStore(t, dir)
	s1 := NewSessionWithStore(1, st1)
	if _, err := s1.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	// Drop the snapshot so the warm path must go through trace replay.
	st2.Delete(profKey(Fingerprint(p, false, compiler.Default()), bio.SizeTest))
	s2 := NewSessionWithStore(1, st2)
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s2.Characterize(canceled, p, bio.SizeTest); err == nil {
		t.Fatal("characterize with canceled context succeeded")
	}
	// The trace entry must still be there: a fresh context replays.
	if _, err := s2.Characterize(ctx, p, bio.SizeTest); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Runs != 0 || st.ReplayRuns != 1 {
		t.Fatalf("trace was evicted by cancellation: %+v", st)
	}
}

// TestFingerprintSensitivity: the fingerprint must change with any
// input that affects replay fidelity.
func TestFingerprintSensitivity(t *testing.T) {
	h, err := bio.ByName("hmmsearch")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := bio.ByName("predator")
	if err != nil {
		t.Fatal(err)
	}
	base := Fingerprint(h, false, compiler.Default())
	if base == Fingerprint(pr, false, compiler.Default()) {
		t.Error("different programs share a fingerprint")
	}
	o0 := compiler.Options{}
	if base == Fingerprint(h, false, o0) {
		t.Error("different compiler options share a fingerprint")
	}
	if base != Fingerprint(h, false, compiler.Default()) {
		t.Error("fingerprint is not deterministic")
	}
}
