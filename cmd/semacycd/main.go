// Command semacycd serves the SemAc(C) decision pipeline as a
// long-lived HTTP/JSON service: POST /decide, /decide/batch and
// /approximate for decisions; POST/GET/DELETE /instances to manage
// named databases (indexed at load time), PATCH /instances/{name} to
// mutate them atomically (one delta batch = one epoch, journalled for
// incremental re-evaluation), and POST /evaluate to run queries
// against them with a cached evaluation plan — incrementally repairing
// retained reducer state across patches, or over a copy-on-write
// "overlay" for what-if deltas that never touch the stored instance.
// All endpoints share the decision cache, per-request deadlines,
// bounded worker-pool backpressure (429 + Retry-After), and graceful
// drain on SIGTERM/SIGINT. See internal/server, docs/API.md,
// docs/DELTAS.md and the README quick-start.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semacyclic/internal/server"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("semacycd", flag.ExitOnError)
	addr := fs.String("addr", ":8787", "listen address")
	workers := fs.Int("workers", 0, "decision workers (0 = one per logical CPU)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 4x workers); full queue sheds with 429")
	cache := fs.Int("cache", 4096, "decision cache entries")
	planCache := fs.Int("plan-cache", 1024, "evaluation plan cache entries")
	maxInstances := fs.Int("max-instances", 64, "named-instance registry capacity")
	maxAtoms := fs.Int("max-instance-atoms", 1_000_000, "per-instance atom limit (larger loads get 413)")
	deadline := fs.Duration("deadline", 10*time.Second, "default per-request deadline (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "shutdown connection-drain budget")
	slowMS := fs.Int64("slow-ms", 0, "log requests slower than this many milliseconds with their span tree (0 = off)")
	traceRing := fs.Int("trace-ring", 128, "recent request traces kept for GET /debug/traces")
	_ = fs.Parse(args)

	cfg := server.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheSize:        *cache,
		PlanCacheSize:    *planCache,
		MaxInstances:     *maxInstances,
		MaxInstanceAtoms: *maxAtoms,
		DefaultDeadline:  *deadline,
		SlowRequest:      time.Duration(*slowMS) * time.Millisecond,
		TraceRingSize:    *traceRing,
	}
	if *deadline == 0 {
		cfg.DefaultDeadline = -1 // flag 0 means "no default deadline"
	}
	srv := server.New(cfg)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "semacycd: listening on %s (workers=%d)\n", *addr, srv.Workers())

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "semacycd: serve: %v\n", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "semacycd: %v: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "semacycd: shutdown: %v\n", err)
		code = 1
	}
	srv.Drain()
	fmt.Fprintln(os.Stderr, "semacycd: drained")
	return code
}
