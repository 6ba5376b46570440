package experiment

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// WriteSeriesTable renders a set of series as an aligned text table with
// one row per checkpoint — the textual form of a figure.
func WriteSeriesTable(w io.Writer, title string, series []*Series, ratio bool) error {
	if len(series) == 0 {
		return fmt.Errorf("experiment: no series to print")
	}
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "rounds")
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Label)
	}
	fmt.Fprintln(tw)
	base := series[0]
	for i, t := range base.Checkpoints {
		fmt.Fprintf(tw, "%d", t)
		for _, s := range series {
			if i >= len(s.CumRegret) {
				fmt.Fprintf(tw, "\t-")
				continue
			}
			if ratio {
				fmt.Fprintf(tw, "\t%.4f", s.RegretRatio[i])
			} else {
				fmt.Fprintf(tw, "\t%.2f", s.CumRegret[i])
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteSeriesCSV renders the series as CSV for plotting.
func WriteSeriesCSV(w io.Writer, series []*Series, ratio bool) error {
	if len(series) == 0 {
		return fmt.Errorf("experiment: no series to print")
	}
	fmt.Fprintf(w, "rounds")
	for _, s := range series {
		fmt.Fprintf(w, ",%q", s.Label)
	}
	fmt.Fprintln(w)
	base := series[0]
	for i, t := range base.Checkpoints {
		fmt.Fprintf(w, "%d", t)
		for _, s := range series {
			if i >= len(s.CumRegret) {
				fmt.Fprintf(w, ",")
				continue
			}
			if ratio {
				fmt.Fprintf(w, ",%.6f", s.RegretRatio[i])
			} else {
				fmt.Fprintf(w, ",%.6f", s.CumRegret[i])
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteTable1 runs and renders Table I, one row per cell.
func WriteTable1(w io.Writer, cells []Cell, seed uint64) error {
	fmt.Fprintln(w, "Table I: statistics per round, version with reserve price")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tT\tMarket Value\tReserve Price\tPosted Price\tRegret")
	for _, c := range cells {
		row, err := Table1Row(c.N, c.T, c.Owners(), seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%s\n",
			c.N, c.T,
			row.MarketValue.String(), row.Reserve.String(),
			row.Posted.String(), row.Regret.String())
	}
	return tw.Flush()
}

// seriesOf converts typed results into the base Series slice for the
// table writers.
func seriesOf[S interface{ base() *Series }](in []S) []*Series {
	out := make([]*Series, len(in))
	for i, s := range in {
		out[i] = s.base()
	}
	return out
}

// base accessors let the generic helper above work across result types.
func (s *Series) base() *Series              { return s }
func (r *AccommodationResult) base() *Series { return &r.Series }
func (r *ImpressionResult) base() *Series    { return &r.Series }

// SeriesOfAccommodation adapts Fig. 5(b) results for the table writers.
func SeriesOfAccommodation(in []*AccommodationResult) []*Series { return seriesOf(in) }

// SeriesOfImpression adapts Fig. 5(c) results for the table writers.
func SeriesOfImpression(in []*ImpressionResult) []*Series { return seriesOf(in) }
