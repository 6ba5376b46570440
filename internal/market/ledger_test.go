package market

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"datamarket/internal/pricing"
	"datamarket/internal/randx"
)

// txDiff describes how got differs from want, comparing every float by
// its bits; it returns "" when they are identical.
func txDiff(got, want Transaction) string {
	if got.Round != want.Round || got.Decision != want.Decision || got.Sold != want.Sold {
		return fmt.Sprintf("round/decision/sold %d/%v/%v, want %d/%v/%v",
			got.Round, got.Decision, got.Sold, want.Round, want.Decision, want.Sold)
	}
	for _, f := range [...]struct {
		name      string
		got, want float64
	}{
		{"Reserve", got.Reserve, want.Reserve},
		{"Posted", got.Posted, want.Posted},
		{"Revenue", got.Revenue, want.Revenue},
		{"Compensation", got.Compensation, want.Compensation},
		{"Profit", got.Profit, want.Profit},
		{"Answer", got.Answer, want.Answer},
		{"MarketValue", got.MarketValue, want.MarketValue},
		{"Regret", got.Regret, want.Regret},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return fmt.Sprintf("%s %v, want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// TestLedgerChunkBoundaries trades past two ledger chunk boundaries,
// one trade at a time and in batches, with sold, unsold and skipped
// rounds, and requires Ledger and every LedgerSlice page to be bit for
// bit the transactions the trades returned.
func TestLedgerChunkBoundaries(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 40 {
		t.Fatalf("ledger entry is %d bytes, want ≤ 40", size)
	}
	const (
		owners = 40
		n      = 4
		trades = 2*ledgerChunk + 700
	)
	pop := testOwners(t, owners, 81)
	// A knowledge set of radius 1.5 bounds every price by 1.5, below the
	// largest reserves (Σx of a unit vector reaches √n = 2), so some
	// rounds skip from the start.
	mech, err := pricing.New(n, 1.5, pricing.WithReserve(),
		pricing.WithThreshold(pricing.DefaultThreshold(n, trades, 0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(Config{Owners: pop, Mechanism: pricing.NewSync(mech), FeatureDim: n, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	if txs, total := b.LedgerSlice(0, 0); len(txs) != 0 || total != 0 || len(b.ledger.chunks) != 0 {
		t.Fatalf("untraded market: %d entries, total %d, %d chunks; want none", len(txs), total, len(b.ledger.chunks))
	}

	r := randx.New(83)
	query := func() Query {
		// Valuations far above, far below or near the reserve mix sales
		// and rejections.
		v := []float64{0, 100, r.Uniform(0, 2)}[r.Intn(3)]
		return Query{Q: sparseTestQuery(t, r, owners), Valuation: v}
	}
	var want []Transaction
	for len(want) < trades {
		if k := 1 + r.Intn(100); k < 10 {
			for ; k > 0; k-- {
				tx, err := b.Trade(query())
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, tx)
			}
		} else {
			queries := make([]Query, k)
			for i := range queries {
				queries[i] = query()
			}
			for _, o := range b.TradeBatchOutcomes(queries) {
				if o.Err != nil {
					t.Fatal(o.Err)
				}
				want = append(want, o.Tx)
			}
		}
	}
	var sold, unsold, skipped int
	for i, tx := range want {
		if tx.Round != i+1 {
			t.Fatalf("trade %d returned round %d", i, tx.Round)
		}
		switch {
		case tx.Decision == pricing.DecisionSkip:
			skipped++
		case tx.Sold:
			sold++
		default:
			unsold++
		}
	}
	if sold == 0 || unsold == 0 || skipped == 0 {
		t.Fatalf("rounds sold/unsold/skipped = %d/%d/%d, want each > 0", sold, unsold, skipped)
	}

	check := func(name string, got []Transaction, from int) {
		t.Helper()
		for i, tx := range got {
			if d := txDiff(tx, want[from+i]); d != "" {
				t.Fatalf("%s: entry %d: %s", name, from+i, d)
			}
		}
	}
	all := b.Ledger()
	if len(all) != len(want) {
		t.Fatalf("Ledger has %d entries, want %d", len(all), len(want))
	}
	check("Ledger", all, 0)

	total := len(want)
	for _, p := range []struct {
		name          string
		offset, limit int
		from, n       int // the page expected: want[from : from+n]
	}{
		{"straddles one boundary", ledgerChunk - 10, 25, ledgerChunk - 10, 25},
		{"spans a whole chunk", ledgerChunk - 5, ledgerChunk + 10, ledgerChunk - 5, ledgerChunk + 10},
		{"ends on a boundary", ledgerChunk, ledgerChunk, ledgerChunk, ledgerChunk},
		{"limit 0 runs to the end", 2*ledgerChunk - 3, 0, 2*ledgerChunk - 3, total - 2*ledgerChunk + 3},
		{"negative offset starts at 0", -7, 12, 0, 12},
		{"limit past the end", total - 4, 100, total - 4, 4},
		{"offset past the end", total + 5, 10, total, 0},
		{"limit near MaxInt", 17, math.MaxInt, 17, total - 17},
		{"both near MaxInt", math.MaxInt, math.MaxInt, total, 0},
	} {
		got, gotTotal := b.LedgerSlice(p.offset, p.limit)
		if gotTotal != total || len(got) != p.n {
			t.Fatalf("%s: LedgerSlice(%d, %d) = %d entries of %d, want %d of %d",
				p.name, p.offset, p.limit, len(got), gotTotal, p.n, total)
		}
		check(p.name, got, p.from)
	}
}
