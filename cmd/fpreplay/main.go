// Command fpreplay streams a saved dataset snapshot through a live
// collection server using the resilient client — a load generator for
// cmd/fpserver and a demonstration of the transfer pipeline surviving
// outages. Exports are in user order (see storage.ShardedStore.WriteTo),
// so the visits are stable-sorted by time and replayed in that order;
// -speedup compresses the original eight-month timeline.
//
// Usage:
//
//	fpgen -users 5000 -o dataset.jsonl
//	fpserver -addr 127.0.0.1:9400 &
//	fpreplay -in dataset.jsonl -addr 127.0.0.1:9400 -speedup 2000000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/storage"
)

func main() {
	in := flag.String("in", "dataset.jsonl", "dataset snapshot to replay")
	addr := flag.String("addr", "127.0.0.1:9400", "collection server address")
	speedup := flag.Float64("speedup", 5_000_000, "timeline compression factor (1 = real time)")
	report := flag.Int("report", 1000, "progress report interval in records")
	flag.Parse()
	if err := checkFlags(*speedup, *report); err != nil {
		fmt.Fprintf(os.Stderr, "fpreplay: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	store, err := storage.LoadFile(*in)
	if err != nil {
		log.Fatalf("fpreplay: %v", err)
	}
	records := store.Records()
	if len(records) == 0 {
		log.Fatal("fpreplay: empty dataset")
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })
	fmt.Printf("replaying %d records from %s to %s (speedup %.0fx)\n",
		len(records), *in, *addr, *speedup)

	client := collector.NewResilientClient(*addr)
	defer client.Close()

	start := time.Now()
	t0 := records[0].Time
	for i, rec := range records {
		// Pace the replay against the compressed original timeline.
		due := time.Duration(float64(rec.Time.Sub(t0)) / *speedup)
		if sleep := due - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		_ = client.Submit(rec) // on failure the record stays buffered (pending) for a retry
		if (i+1)%*report == 0 {
			st := client.Stats()
			fmt.Printf("  %d/%d replayed (sent %d, pending %d, dropped %d, retransmits %d)\n",
				i+1, len(records), st.Sent, client.Pending(), st.Dropped, st.Retransmits)
		}
	}
	// Final drain attempt.
	if err := client.Flush(); err != nil {
		log.Printf("fpreplay: flush: %v", err)
	}
	st := client.Stats()
	fmt.Printf("done in %v: %d sent, %d still pending, %d dropped, %d retransmits\n",
		time.Since(start).Round(time.Millisecond), st.Sent, client.Pending(), st.Dropped, st.Retransmits)
}

// checkFlags refuses pacing flags the replay loop cannot honour: a
// -speedup that is not positive makes every due time infinite, NaN or
// negative, so the replay would run unpaced without saying so, and a
// -report below 1 divides by zero.
func checkFlags(speedup float64, report int) error {
	if !(speedup > 0) {
		return fmt.Errorf("-speedup %v: must be positive", speedup)
	}
	if report < 1 {
		return fmt.Errorf("-report %d: must be at least 1", report)
	}
	return nil
}
