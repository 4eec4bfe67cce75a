package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"apollo/internal/flight"
	"apollo/internal/trace"
)

// The apollo-flight-v1 JSON the debug endpoint serves, as the recorder
// itself declares it.
type (
	flightCapture = flight.Capture
	flightRecord  = flight.CaptureRecord
)

// siteName returns the display name of the record's site.
func siteName(r *flightRecord) string {
	if r.Site != "" {
		return r.Site
	}
	return r.SiteID
}

// variant labels the executed parameter assignment.
func variant(r *flightRecord) string {
	if r.Chunk != 0 {
		return fmt.Sprintf("class=%d/chunk=%d", r.Policy, r.Chunk)
	}
	return fmt.Sprintf("class=%d", r.Policy)
}

// regionKey groups records that decided the same input: same site, same
// feature snapshot. Exploration gives such a group observations of more
// than one variant, which is what makes the retrospective comparison
// possible.
func regionKey(r *flightRecord) string {
	names := make([]string, 0, len(r.Features))
	for name := range r.Features {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(siteName(r))
	for _, name := range names {
		if v := r.Features[name]; v != 0 {
			fmt.Fprintf(&b, " %s=%g", name, v)
		}
	}
	return b.String()
}

// runFlightCmd implements `apollo-inspect flight`: the misprediction
// table (chosen vs retrospectively best variant per region) and the
// decision-path histogram of a flight capture.
func runFlightCmd(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	in := fs.String("in", "", "flight capture JSON file (apollo-flight-v1)")
	url := fs.String("url", "", "fetch the capture from a live /debug/apollo/flight endpoint")
	top := fs.Int("top", 20, "rows to print per table")
	jsonOut := fs.Bool("json", false, "emit the analysis as JSON instead of tables")
	timeout := fs.Duration("timeout", 3*time.Second, "HTTP timeout for -url fetches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := readInput(*in, *url, *timeout)
	if err != nil {
		return err
	}
	c, err := decodeCapture(data)
	if err != nil {
		return err
	}
	if *jsonOut {
		return writeFlightJSON(os.Stdout, c)
	}
	fmt.Printf("flight capture: %d records retained, %d emitted, %d dropped\n",
		len(c.Records), c.Emitted, c.Dropped)
	writeMispredictTable(os.Stdout, c.Records, *top)
	writePathHistogram(os.Stdout, c.Records, *top)
	return nil
}

// decodeCapture parses an apollo-flight-v1 capture.
func decodeCapture(data []byte) (*flightCapture, error) {
	var c flightCapture
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("decoding capture: %w", err)
	}
	if c.Format != flight.CaptureFormatID {
		return nil, fmt.Errorf("not a flight capture (format %q, want %s)", c.Format, flight.CaptureFormatID)
	}
	return &c, nil
}

// writeFlightJSON emits the flight analysis — capture counters plus the
// full misprediction table — as one JSON object, so scripts can assert
// on regret numbers without scraping the text tables.
func writeFlightJSON(w io.Writer, c *flightCapture) error {
	type rowJSON struct {
		Region       string  `json:"region"`
		Launches     int     `json:"launches"`
		Chosen       string  `json:"chosen"`
		ChosenMeanNS float64 `json:"chosen_mean_ns"`
		Best         string  `json:"best"`
		BestMeanNS   float64 `json:"best_mean_ns"`
		Regret       float64 `json:"regret"`
		Mispredicted bool    `json:"mispredicted"`
	}
	rows := mispredictTable(c.Records)
	out := struct {
		Format      string    `json:"format"`
		Records     int       `json:"records"`
		Emitted     uint64    `json:"emitted"`
		Dropped     uint64    `json:"dropped"`
		Regions     int       `json:"comparable_regions"`
		Mispredicts []rowJSON `json:"mispredicts"`
	}{Format: "apollo-flight-report-v1", Records: len(c.Records),
		Emitted: c.Emitted, Dropped: c.Dropped, Regions: len(rows)}
	for _, r := range rows {
		out.Mispredicts = append(out.Mispredicts, rowJSON{
			Region: r.region, Launches: r.launches,
			Chosen: r.chosen, ChosenMeanNS: r.chosenMeanNS,
			Best: r.best, BestMeanNS: r.bestMeanNS,
			Regret: r.regret, Mispredicted: r.chosen != r.best,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// readInput loads the capture from a file or a live endpoint.
func readInput(in, url string, timeout time.Duration) ([]byte, error) {
	switch {
	case in != "" && url != "":
		return nil, fmt.Errorf("set only one of -in and -url")
	case in != "":
		return os.ReadFile(in)
	case url != "":
		hc := &http.Client{Timeout: timeout}
		resp, err := hc.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
		}
		return readCapped(resp.Body, "GET "+url)
	}
	return nil, fmt.Errorf("set -in or -url")
}

// maxReplyBytes caps what one reply of a live endpoint may hold: a flight
// or loop capture is a few megabytes, a /predict answer kilobytes. A
// variable so tests can answer over it without a 64 MiB body.
var maxReplyBytes int64 = 64 << 20

// readCapped reads a reply of at most maxReplyBytes; a longer one is an
// error naming the request, never a truncated body handed on to a decoder.
func readCapped(r io.Reader, what string) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxReplyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%s: reading reply: %w", what, err)
	}
	if int64(len(data)) > maxReplyBytes {
		return nil, fmt.Errorf("%s: reply exceeds %d bytes", what, maxReplyBytes)
	}
	return data, nil
}

// variantStat accumulates one region's observations of one variant.
type variantStat struct {
	count  int
	total  float64
	chosen int // times this variant was the (non-explored) model choice
}

// regionStat is one (site, feature snapshot) group.
type regionStat struct {
	key      string
	launches int
	variants map[string]*variantStat
}

// mean observed runtime of a variant.
func (v *variantStat) mean() float64 { return v.total / float64(v.count) }

// mispredictRow is one line of the misprediction table.
type mispredictRow struct {
	region       string
	launches     int
	chosen       string
	chosenMeanNS float64
	best         string
	bestMeanNS   float64
	regret       float64
}

// mispredictTable compares, per region, the variant the model chose
// against the retrospectively fastest observed variant. Regions with
// observations of only one variant cannot be judged and are skipped —
// exploration (tuner -explore-every) is what produces the
// counterfactual observations this table needs.
func mispredictTable(recs []flightRecord) []mispredictRow {
	regions := map[string]*regionStat{}
	var order []string
	for i := range recs {
		r := &recs[i]
		key := regionKey(r)
		rs := regions[key]
		if rs == nil {
			rs = &regionStat{key: key, variants: map[string]*variantStat{}}
			regions[key] = rs
			order = append(order, key)
		}
		rs.launches++
		v := rs.variants[variant(r)]
		if v == nil {
			v = &variantStat{}
			rs.variants[variant(r)] = v
		}
		v.count++
		v.total += r.ObservedNS
		if !r.Explored {
			v.chosen++
		}
	}
	var rows []mispredictRow
	for _, key := range order {
		rs := regions[key]
		if len(rs.variants) < 2 {
			continue
		}
		var chosenName, bestName string
		var chosenStat, bestStat *variantStat
		names := make([]string, 0, len(rs.variants))
		for name := range rs.variants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := rs.variants[name]
			if chosenStat == nil || v.chosen > chosenStat.chosen {
				chosenName, chosenStat = name, v
			}
			if bestStat == nil || v.mean() < bestStat.mean() {
				bestName, bestStat = name, v
			}
		}
		row := mispredictRow{
			region:       rs.key,
			launches:     rs.launches,
			chosen:       chosenName,
			chosenMeanNS: chosenStat.mean(),
			best:         bestName,
			bestMeanNS:   bestStat.mean(),
		}
		if row.bestMeanNS > 0 {
			row.regret = (row.chosenMeanNS - row.bestMeanNS) / row.bestMeanNS
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].regret > rows[j].regret })
	return rows
}

func writeMispredictTable(w io.Writer, recs []flightRecord, top int) {
	rows := mispredictTable(recs)
	fmt.Fprintf(w, "\nmisprediction table (chosen vs retrospectively best, %d comparable regions):\n", len(rows))
	if len(rows) == 0 {
		fmt.Fprintln(w, "  (no region observed under more than one variant; enable exploration)")
		return
	}
	fmt.Fprintf(w, "  %-9s %8s  %-18s %12s  %-18s %12s %8s\n",
		"verdict", "launches", "chosen", "mean ns", "best", "mean ns", "regret")
	for i, r := range rows {
		if i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(rows)-top)
			break
		}
		verdict := "ok"
		if r.chosen != r.best {
			verdict = "MISPRED"
		}
		fmt.Fprintf(w, "  %-9s %8d  %-18s %12.0f  %-18s %12.0f %7.1f%%\n",
			verdict, r.launches, r.chosen, r.chosenMeanNS, r.best, r.bestMeanNS, 100*r.regret)
		fmt.Fprintf(w, "            region: %s\n", r.region)
	}
}

// writePathHistogram prints how often each distinct root-to-leaf
// decision path was taken, per site — the "which branches actually
// fire" view of a deployed model.
func writePathHistogram(w io.Writer, recs []flightRecord, top int) {
	counts := map[string]int{}
	var order []string
	for i := range recs {
		r := &recs[i]
		if len(r.Path) == 0 {
			continue
		}
		key := siteName(r) + ":\n      " + strings.Join(r.Path, "\n      ")
		if counts[key] == 0 {
			order = append(order, key)
		}
		counts[key]++
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	fmt.Fprintf(w, "\ndecision-path histogram (%d distinct paths):\n", len(order))
	if len(order) == 0 {
		fmt.Fprintln(w, "  (no records carry decision trails)")
		return
	}
	for i, key := range order {
		if i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(order)-top)
			break
		}
		fmt.Fprintf(w, "  %6dx %s\n", counts[key], key)
	}
}

// runTraceCmd implements `apollo-inspect trace`: validate a Chrome
// trace-event JSON file (as captured from /debug/apollo/trace) and
// summarize it. It exits non-zero on malformed traces, which is what
// the flight smoke test asserts.
func runTraceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	in := fs.String("in", "", "Chrome trace-event JSON file")
	url := fs.String("url", "", "fetch the trace from a live /debug/apollo/trace endpoint")
	timeout := fs.Duration("timeout", 3*time.Second, "HTTP timeout for -url fetches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := readInput(*in, *url, *timeout)
	if err != nil {
		return err
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return fmt.Errorf("not a trace-event JSON array: %w", err)
	}
	cats := map[string]int{}
	for i, e := range events {
		if e.Name == "" || e.Ph != "X" {
			return fmt.Errorf("event %d malformed: name=%q ph=%q (want complete events)", i, e.Name, e.Ph)
		}
		if e.Dur < 0 || e.Ts < 0 {
			return fmt.Errorf("event %d has negative timing: ts=%g dur=%g", i, e.Ts, e.Dur)
		}
		cats[e.Cat]++
	}
	catNames := make([]string, 0, len(cats))
	for c := range cats {
		catNames = append(catNames, c)
	}
	sort.Strings(catNames)
	fmt.Printf("valid chrome trace: %d events", len(events))
	for _, c := range catNames {
		fmt.Printf(", %d %s", cats[c], c)
	}
	fmt.Println()
	return nil
}
