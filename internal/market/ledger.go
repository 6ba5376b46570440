package market

import "datamarket/internal/pricing"

// ledgerChunk is the number of entries in one ledger chunk. A chunk is
// allocated whole when the previous one fills, and a full chunk is never
// written again.
const ledgerChunk = 4096

// soldFlag marks a sold round in entry.flags; the low bits hold the
// pricing.Decision.
const soldFlag = 1 << 7

// entry is the compact ledger record of one settled round: only what no
// other field derives, 40 bytes against Transaction's 88. transaction
// rebuilds the rest.
type entry struct {
	reserve     float64
	posted      float64
	answer      float64
	marketValue float64
	flags       uint8 // decision | soldFlag
}

func (e *entry) sold() bool { return e.flags&soldFlag != 0 }

// transaction rebuilds the Transaction of the entry at ledger index i.
// settleLocked returns the same rebuild, so a ledger page is bit for bit
// the transactions its trades returned.
func (e *entry) transaction(i int) Transaction {
	tx := Transaction{
		Round:       i + 1,
		Reserve:     e.reserve,
		Posted:      e.posted,
		Decision:    pricing.Decision(e.flags &^ soldFlag),
		Sold:        e.sold(),
		Answer:      e.answer,
		MarketValue: e.marketValue,
	}
	if tx.Sold {
		tx.Revenue = tx.Posted
		tx.Compensation = tx.Reserve
		tx.Profit = tx.Revenue - tx.Compensation
	}
	tx.Regret = pricing.SingleRoundRegret(tx.MarketValue, tx.Reserve, tx.Posted)
	return tx
}

// ledger is the broker's append-only record of settled rounds, kept in
// fixed chunks of ledgerChunk entries. An append never copies earlier
// entries, and a market that never trades allocates no chunk. It grows
// with every trade; nothing is dropped.
type ledger struct {
	chunks []*[ledgerChunk]entry
	n      int
}

func (l *ledger) len() int { return l.n }

func (l *ledger) append(e entry) {
	if l.n == len(l.chunks)*ledgerChunk {
		l.chunks = append(l.chunks, new([ledgerChunk]entry))
	}
	l.chunks[l.n/ledgerChunk][l.n%ledgerChunk] = e
	l.n++
}

// copyTo copies the entries [from, from+len(dst)) into dst; the range
// must lie within the ledger.
func (l *ledger) copyTo(dst []entry, from int) {
	for len(dst) > 0 {
		k := copy(dst, l.chunks[from/ledgerChunk][from%ledgerChunk:])
		dst, from = dst[k:], from+k
	}
}
