package collector

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// Health is the /healthz rule of both daemons: draining once srv's
// Shutdown has begun, and unhealthy, naming the error, once walErr
// reports the durable layer's sticky write or fsync error.
func Health(srv *ConnServer, walErr func() error) obs.HealthStatus {
	st := obs.HealthStatus{Healthy: true}
	if srv.Draining() {
		st.Draining = true
		st.Detail = "draining: refusing new connections"
	}
	if err := walErr(); err != nil {
		st.Healthy = false
		st.WALError = err.Error()
	}
	return st
}

// RunDaemon is the process shell fpserver and fplinkd share. It prints
// the listen banner and serves srv on lis. With adminLis non-nil it
// serves the admin endpoint (regs plus the Go runtime gauges, /healthz
// by Health) for the rest of the process, drain included: scrapes keep
// working during a drain, which is exactly when they matter. Every
// compactEvery (0 disables) it calls compact and prints what a
// non-idle checkpoint wrote; compact is nil when there is no durable
// layer, and a period without one is refused. When ctx is done it
// drains srv within drainTimeout. It returns once Serve has returned
// and the drain and the compaction ticker have stopped (the admin
// server keeps serving), so the caller's final step owns the store
// alone.
func RunDaemon(ctx context.Context, srv *ConnServer, lis, adminLis net.Listener, walErr func() error,
	regs []*obs.Registry, compactEvery time.Duration, compact func() (storage.CompactionStats, error),
	drainTimeout time.Duration) error {
	if compactEvery > 0 && compact == nil {
		return errors.New("-compact-every requires -wal-dir")
	}
	prog := filepath.Base(os.Args[0])
	fmt.Printf("%s listening on %s\n", prog, lis.Addr())

	if adminLis != nil {
		regs = append(regs[:len(regs):len(regs)], obs.NewRuntimeRegistry())
		health := func() obs.HealthStatus { return Health(srv, walErr) }
		fmt.Printf("admin endpoint on http://%s (/metrics /varz /healthz /debug/pprof/)\n", adminLis.Addr())
		go func() {
			if err := http.Serve(adminLis, obs.NewAdminHandler(health, regs...)); !errors.Is(err, net.ErrClosed) {
				log.Printf("%s: admin server: %v", prog, err)
			}
		}()
	}

	served := make(chan struct{})
	var wg sync.WaitGroup
	if compactEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(compactEvery)
			defer tick.Stop()
			for {
				select {
				case <-served:
					return
				case <-tick.C:
				}
				cs, err := compact()
				if err != nil {
					log.Printf("%s: compaction: %v", prog, err)
					continue
				}
				if cs.CoveredSeg == 0 {
					continue // nothing appended or evicted since the last checkpoint
				}
				fmt.Printf("compaction: snapshot %d records, %d values (%d bytes); %d segments removed\n",
					cs.Records, cs.Values, cs.SnapshotBytes, cs.SegmentsRemoved)
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-served:
			return // Serve failed on its own
		case <-ctx.Done():
		}
		fmt.Println("\ndraining: refusing new connections, finishing in-flight requests ...")
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		srv.Shutdown(dctx) // a forced close is logged by Shutdown, with its count
	}()

	err := srv.Serve(lis)
	close(served)
	wg.Wait()
	return err
}
