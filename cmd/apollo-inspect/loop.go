package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apollo/internal/looptrace"
)

// runLoopCmd implements `apollo-inspect loop`: stitch the closed-loop
// event journals of any number of processes (replicas, the trainer, the
// tuner) into per-loop causal timelines and the loop-reaction-time
// distribution.
//
//	apollo-inspect loop -dir ./loopjournal           stitch every loop-*/
//	apollo-inspect loop -in loopjournal/loop-traind  one actor's journal
//	apollo-inspect loop -url http://127.0.0.1:9999/debug/apollo/loop
//	apollo-inspect loop -dir a,b -json               machine-readable report
//
// -dir and -url accept comma-separated lists, and all three sources
// combine: the stitcher merges every event it is given by wall time.
func runLoopCmd(args []string) error {
	fs := flag.NewFlagSet("loop", flag.ContinueOnError)
	dir := fs.String("dir", "", "directory holding loop-<actor>/ journals (comma-separated for several)")
	in := fs.String("in", "", "one actor's journal directory (comma-separated for several)")
	url := fs.String("url", "", "fetch live events from /debug/apollo/loop endpoints (comma-separated for several)")
	jsonOut := fs.Bool("json", false, "emit the stitched apollo-loop-report-v1 JSON instead of the text timeline")
	timeout := fs.Duration("timeout", 3*time.Second, "HTTP timeout for -url fetches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" && *in == "" && *url == "" {
		return fmt.Errorf("set at least one of -dir, -in, or -url")
	}
	var events []looptrace.Event
	for _, d := range splitList(*dir) {
		evs, err := looptrace.ReadJournalDir(d)
		if err != nil {
			return err
		}
		events = append(events, evs...)
	}
	for _, path := range splitList(*in) {
		evs, err := looptrace.ReadJournal(path)
		if err != nil {
			return err
		}
		events = append(events, evs...)
	}
	for _, u := range splitList(*url) {
		data, err := readInput("", u, *timeout)
		if err != nil {
			return err
		}
		var c looptrace.Capture
		if err := json.Unmarshal(data, &c); err != nil {
			return fmt.Errorf("decoding %s: %w", u, err)
		}
		if c.Format != looptrace.JournalFormatID {
			return fmt.Errorf("%s is not a loop capture (format %q, want %q)",
				u, c.Format, looptrace.JournalFormatID)
		}
		events = append(events, c.Events...)
	}
	rep := looptrace.Stitch(events)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return rep.WriteTimeline(os.Stdout)
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
