// Command benchrunner regenerates every table and figure of the paper's
// evaluation at laptop scale. Each experiment id corresponds to a table or
// figure; see BENCH.md at the repository root for the per-experiment index
// and how to read the rendered tables. Performance numbers come from the
// reference benchmark (bench/README.md) and nowhere else.
//
// Usage:
//
//	go run ./cmd/benchrunner -experiment all
//	go run ./cmd/benchrunner -experiment fig5.8 -dataset SCI_10K -scale 1
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/benchmark"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (see BENCH.md): "+strings.Join(experimentIDs(), ", ")+", all")
	dataset := flag.String("dataset", "SCI_10K", "dataset preset for single-dataset experiments")
	scale := flag.Int("scale", 1, "scale multiplier applied to dataset presets")
	flag.Parse()

	if err := run(*experiment, *dataset, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// experiment is one registry entry: a primary id, the figure aliases that
// select the same run, and the runner, which renders the result table.
type experiment struct {
	id      string
	aliases []string
	run     func(dataset string, scale int) (string, error)
}

// experiments is the dispatch registry, in `-experiment all` execution order.
var experiments = []experiment{
	{id: "fig4.1", run: func(dataset string, scale int) (string, error) {
		_, table, err := benchmark.RunFig41(nil, scale)
		return table.String(), err
	}},
	{id: "tab5.2", run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunTable52(nil, scale)
		return table.String(), err
	}},
	{id: "fig5.7", run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunFig57(nil, nil)
		return table.String(), err
	}},
	{id: "fig5.8", aliases: []string{"fig5.20"}, run: func(dataset string, scale int) (string, error) {
		_, table, err := benchmark.RunFig58(dataset, scale)
		return table.String(), err
	}},
	{id: "fig5.10", aliases: []string{"fig5.12"}, run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunFig510(nil, scale)
		return table.String(), err
	}},
	{id: "fig5.14", aliases: []string{"fig5.15"}, run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunFig514(nil, scale, 20)
		return table.String(), err
	}},
	{id: "fig5.17", aliases: []string{"fig5.19"}, run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunFig517(dataset, scale, 1.5, 2)
		return table.String(), err
	}},
	{id: "ch7", run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunCh7(40, 7)
		return table.String(), err
	}},
	{id: "ch8", run: func(dataset string, scale int) (string, error) {
		table, err := benchmark.RunCh8(30, 7)
		return table.String(), err
	}},
}

// experimentIDs lists primary registry ids, sorted for the flag help.
func experimentIDs() []string {
	ids := make([]string, 0, len(experiments))
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// matches reports whether the selector picks this entry.
func (e *experiment) matches(selector string) bool {
	if strings.EqualFold(selector, e.id) {
		return true
	}
	for _, a := range e.aliases {
		if strings.EqualFold(selector, a) {
			return true
		}
	}
	return false
}

func run(selector, dataset string, scale int) error {
	ran := false
	for i := range experiments {
		e := &experiments[i]
		if selector != "all" && !e.matches(selector) {
			continue
		}
		ran = true
		table, err := e.run(dataset, scale)
		if err != nil {
			return err
		}
		fmt.Println(table)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (known: %s)", selector, strings.Join(experimentIDs(), ", "))
	}
	return nil
}
