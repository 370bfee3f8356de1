// NEXMark example: run query 3 (the incremental join recommending local
// auctions) open-loop on four workers, rescaling its state mid-run with a
// fluid migration, and report the latency timeline around the migration.
package main

import (
	"fmt"
	"os"
	"time"

	"megaphone/internal/harness"
	"megaphone/internal/nexmark"
	"megaphone/internal/plan"
)

func main() {
	res, err := nexmark.Run(nexmark.RunConfig{
		Query:  "q3",
		Params: nexmark.Params{Impl: nexmark.Megaphone, LogBins: 6},
		Config: harness.Config{
			Workers:   4,
			Rate:      100_000,
			Duration:  6 * time.Second,
			Strategy:  plan.Fluid,
			MigrateAt: 2 * time.Second,
		},
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("NEXMark Q3 with a fluid rescaling migration at 2s and back at 4s")
	res.Timeline.Fprint(os.Stdout)
	for i, sp := range res.MigrationSpans {
		fmt.Printf("migration %d: %.2fs..%.2fs (duration %.2fs), max latency %.2fms\n",
			i+1, sp.Start, sp.End, sp.Duration, sp.MaxLatency)
	}
	fmt.Printf("overall: %s over %d events\n", res.Hist.Summary(), res.Records)
}
