// Command phelpsd is the experiment daemon: a long-running HTTP/JSON service
// that runs simulation jobs submitted over the API in internal/serve.
//
//	phelpsd -addr 127.0.0.1:8077 -cache /var/tmp/phelpsd.cache
//	phelps -submit -workloads astar,bfs -configs base,phelps -quick
//
// Each finished cell is appended to the -cache results log, so the next boot
// starts warm even after a SIGKILL. SIGTERM (or SIGINT) drains gracefully:
// new submissions get 503, running cells finish (up to -drain-timeout, then
// their contexts are canceled), and the log is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"phelps/internal/obs"
	"phelps/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "listen address (port 0 picks an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the actual listen address to this file (for scripts using port 0)")
		workers  = flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 1024, "admission queue capacity in cells")
		cache    = flag.String("cache", "", "results log file (replayed at boot, appended to as each cell finishes)")
		ckptDir  = flag.String("ckpt-dir", os.Getenv("PHELPS_CKPT_DIR"), "persistent checkpoint-cache directory for sampled cells (default $PHELPS_CKPT_DIR; empty = no cache)")
		crashDir = flag.String("crash-dir", "", "crash dump directory for panicking cells (default $PHELPS_CRASH_DIR or crashes)")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline after SIGTERM")
		journal  = flag.String("journal-dir", os.Getenv("PHELPS_JOURNAL_DIR"), "write-ahead job journal directory; a restarted daemon resumes incomplete jobs from it (default $PHELPS_JOURNAL_DIR; empty = no journal)")
		cellDL   = flag.Duration("cell-deadline", 0, "wall-clock deadline per cell; a cell that misses it fails (0 = unbounded)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile from boot to the end of the drain to this file (diagnostic; read it with go tool pprof)")
	)
	flag.Parse()

	stopProfile, err := obs.StartCPUProfile(*cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phelpsd: cpuprofile: %v\n", err)
		os.Exit(1)
	}

	srv := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueCap:     *queue,
		CachePath:    *cache,
		CkptDir:      *ckptDir,
		CrashDir:     *crashDir,
		JournalDir:   *journal,
		CellDeadline: *cellDL,
	})
	if err := srv.CacheLoadErr(); err != nil {
		fmt.Fprintf(os.Stderr, "phelpsd: cache load: %v\n", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phelpsd: listen: %v\n", err)
		os.Exit(1)
	}
	actual := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(actual+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "phelpsd: addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("phelpsd listening on %s\n", actual)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)

	select {
	case got := <-sig:
		fmt.Printf("phelpsd: %v: draining (timeout %v)\n", got, *drainT)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "phelpsd: serve: %v\n", err)
		os.Exit(1)
	}

	// Stop accepting HTTP first so in-flight requests finish, then drain the
	// simulation workers and close the results log.
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "phelpsd: shutdown: %v\n", err)
	}
	drainErr := srv.Drain(ctx)
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "phelpsd: cpuprofile: %v\n", err)
	}
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "phelpsd: drain: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Println("phelpsd: drained")
}
