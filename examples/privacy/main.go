// Privacy: run the paper's Insight 1 inferences on a simulated
// population — emoji leaks of co-installed software updates, font-based
// software detection, GPU image → renderer inference, and impossible-
// travel VPN detection — through the report's insight1 section.
package main

import (
	"fmt"
	"os"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
	"fpdyn/internal/report"
)

func main() {
	cfg := population.DefaultConfig(2500)
	cfg.Seed = 7
	ds := population.Simulate(cfg)
	r, err := report.NewStream(report.DatasetSource(ds), dynamics.MapImages(ds.CanvasImages), os.Stdout,
		report.StreamOptions{}, "insight1")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r.Render("insight1")
}
