// Platform: run the real measurement platform end to end over
// localhost TCP — a storage server, several concurrent collection
// clients pushing simulated visits through the parallel task manager
// and the hash-dedup transfer protocol, then analyses over the
// server-side store.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	"fpdyn/internal/browserid"
	"fpdyn/internal/collector"
	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

func main() {
	// Server side.
	store := storage.NewShardedStore(1)
	srv := collector.NewServer(store)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()
	addr := lis.Addr().String()
	fmt.Printf("storage server on %s\n", addr)

	// A simulated population provides the visits.
	ds := population.Simulate(population.DefaultConfig(300))
	fmt.Printf("replaying %d visits through %d concurrent clients ...\n", len(ds.Records), 4)

	// Shard visits across clients; each runs the full pipeline:
	// parallel task collection → dedup check → submit.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			cl, err := collector.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			for i := shard; i < len(ds.Records); i += 4 {
				rec := ds.Records[i]
				fp, err := collector.Collect(context.Background(), collector.RecordBrowser{Rec: rec})
				if err != nil {
					log.Fatal(err)
				}
				full := *rec
				full.FP = fp
				if _, err := cl.Submit(&full); err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("  client %d: %d records, %d bytes sent\n", shard, cl.Submitted(), cl.BytesSent())
		}(c)
	}
	wg.Wait()

	s := srv.Stats()
	fmt.Printf("server: %d records, %d values transferred, %d deduped (%.0f%% saved), %d bytes in\n",
		s.RecordsAccepted, s.ValuesReceived, s.ValuesDeduped,
		100*float64(s.ValuesDeduped)/float64(s.ValuesDeduped+s.ValuesReceived), s.BytesReceived)

	// The analyses run straight off the server-side store.
	gt := browserid.Build(store.Records())
	dyns := dynamics.Changed(dynamics.Generate(gt))
	fmt.Printf("analysis over the collected store: %d instances, %d dynamics\n",
		gt.NumInstances(), len(dyns))
}
