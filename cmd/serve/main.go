// Command serve runs the batched inference server: it loads a trained
// approximate model (or a freshly seeded one for load testing) into
// read-only replicas behind a dynamic micro-batching queue and exposes
// the HTTP JSON API documented in internal/serve.
//
//	serve -model lenet -ckpt ckpts/lenet.ckpt -addr :8090
//	curl -s localhost:8090/statz | jq .
//
// Shutdown is graceful: on SIGINT/SIGTERM the server stops admitting
// requests (healthz flips to 503), serves everything already queued or
// in flight, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
)

// drainTimeout bounds the wait for queued and in-flight requests on
// shutdown.
const drainTimeout = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		name     = flag.String("name", "default", "model name clients use in /v1/predict")
		model    = flag.String("model", "lenet", "model kind: lenet|vgg11|vgg16|vgg19|resnet18|resnet34|resnet50")
		classes  = flag.Int("classes", 10, "number of classes")
		hw       = flag.Int("hw", 16, "input resolution (square, 3 channels)")
		width    = flag.Float64("width", 0.125, "channel-width multiplier (1.0 = paper scale)")
		mult     = flag.String("mult", "", "approximate multiplier name (default: accurate 8-bit)")
		ckpt     = flag.String("ckpt", "", "TRCKPv1 checkpoint to serve (empty: fresh seeded weights)")
		replicas = flag.Int("replicas", 1, "independent inference replicas")
		seed     = flag.Int64("seed", 1, "init seed when no checkpoint is given")
		metricsA = flag.String("metrics-addr", "", "optional debug listener for /metrics and /debug/pprof (e.g. :8091); the API mux always serves /metrics itself")
	)
	flag.Parse()

	if *metricsA != "" {
		go func() { log.Fatal(obs.ListenAndServe(*metricsA, obs.Default())) }()
		log.Printf("observability endpoint on %s (/metrics, /debug/pprof)", *metricsA)
	}

	m, err := serve.Load(serve.Spec{
		Name: *name, Kind: *model, Classes: *classes, InputHW: *hw, Width: *width,
		Mult: *mult, Ckpt: *ckpt, Replicas: *replicas, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.NewServer(m)
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("serving %s %q on %s (replicas=%d ckpt=%q)", *model, *name, *addr, *replicas, *ckpt)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%s: draining", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain first so queued work finishes while connections stay up,
	// then close the listener and idle connections.
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	st := m.Metrics().Snapshot()
	log.Printf("served %d requests in %d batches (mean batch %.2f), rejected %d, expired %d",
		st.Completed, st.Batches, st.MeanBatch, st.Rejected, st.Expired)
}
