package store

import (
	"fmt"
	"testing"

	"datamarket/internal/pricing"
)

// benchEnv builds one dim-n linear envelope outside the timed region.
func benchEnv(b *testing.B, dim int) *pricing.Envelope {
	b.Helper()
	p, err := pricing.NewFamilyPoster(pricing.FamilySpec{Family: pricing.FamilyLinear, Dim: dim, Horizon: 1000})
	if err != nil {
		b.Fatal(err)
	}
	env, err := p.SnapshotEnvelope()
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkJournalPut measures one journal append (encode + CRC frame +
// write, no fsync) of a dim-16 envelope — the per-changed-stream cost of
// a checkpoint pass.
func BenchmarkJournalPut(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), Fsync: FsyncNever, CompactAt: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	env := benchEnv(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Put(Entry{ID: "s", Env: env}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalCompact1000 measures folding a 1000-entry live set
// into a fresh checkpoint file.
func BenchmarkJournalCompact1000(b *testing.B) {
	j, err := OpenJournal(JournalConfig{Dir: b.TempDir(), Fsync: FsyncNever, CompactAt: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	env := benchEnv(b, 16)
	for i := 0; i < 1000; i++ {
		if err := j.Put(Entry{ID: fmt.Sprintf("s%04d", i), Env: env}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
