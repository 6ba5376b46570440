// Package dataset provides the three dataset substrates of the paper's
// evaluation: MovieLens-style rating corpora (§V-A), Airbnb-style listing
// tables (§V-B), and Avazu-style ad impression logs (§V-C). For each, the
// package ships a parser for the real file's schema *and* a statistically
// matched synthetic generator, because the real datasets cannot ship with
// an offline module.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ErrBadRow marks any malformed-row failure from the dataset loaders:
// short or ragged rows, non-numeric or non-finite cells, out-of-range
// labels. Callers use errors.Is(err, ErrBadRow) to tell data corruption
// apart from plain I/O failures; the loaders never panic on bad input
// and never skip a row silently.
var ErrBadRow = errors.New("malformed row")

// csvTable is a small helper around encoding/csv that reads a headered
// table and resolves columns by name.
type csvTable struct {
	header map[string]int
	width  int
	reader *csv.Reader
}

// newCSVTable reads the header row and prepares column lookup.
func newCSVTable(r io.Reader) (*csvTable, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	idx := make(map[string]int, len(head))
	for i, name := range head {
		idx[name] = i
	}
	return &csvTable{header: idx, width: len(head), reader: cr}, nil
}

// require returns the column indices for the names, failing on any miss.
func (t *csvTable) require(names ...string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		j, ok := t.header[n]
		if !ok {
			return nil, fmt.Errorf("dataset: CSV is missing required column %q", n)
		}
		out[i] = j
	}
	return out, nil
}

// next reads one record; io.EOF signals the clean end of the table. Any
// other failure — including encoding/csv's own short/ragged-row error —
// comes back wrapped with ErrBadRow so loader errors are classifiable.
func (t *csvTable) next() ([]string, error) {
	rec, err := t.reader.Read()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %w", ErrBadRow, err)
	}
	// encoding/csv already enforces a constant field count after the
	// header; this guards the invariant if the reader is ever swapped.
	if len(rec) != t.width {
		return nil, fmt.Errorf("%w: got %d fields, want %d", ErrBadRow, len(rec), t.width)
	}
	return rec, nil
}

// parseFloat converts a CSV cell into a finite float64 with a helpful
// error; NaN/Inf cells are rejected so they cannot poison downstream
// regressions.
func parseFloat(cell, column string, line int) (float64, error) {
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, fmt.Errorf("dataset: line %d column %s: bad number %q: %w", line, column, cell, ErrBadRow)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("dataset: line %d column %s: non-finite number %q: %w", line, column, cell, ErrBadRow)
	}
	return v, nil
}

// parseInt converts a CSV cell into an int64 with a helpful error.
func parseInt(cell, column string, line int) (int64, error) {
	v, err := strconv.ParseInt(cell, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("dataset: line %d column %s: bad integer %q: %w", line, column, cell, ErrBadRow)
	}
	return v, nil
}

// writeCSV writes a headered table; used by cmd/datagen and round-trip
// tests.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	for i, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("dataset: row %d has %d cells, want %d", i, len(row), len(header))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
