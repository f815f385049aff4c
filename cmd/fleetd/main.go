// Command fleetd runs one node of the distributed serving tier: a
// router that fronts client HTTP traffic and routes predictions to
// workers over the FLTFRv1 frame protocol, or a worker that hosts warm
// serve replicas and joins a router.
//
//	fleetd -role router -addr :9100 -http :8090 -cache-mb 16
//	fleetd -role worker -router localhost:9100 -model lenet -ckpt ckpts/lenet.ckpt
//
// The router hedges slow requests to a standby replica, fails in-flight
// work over when a worker dies, and serves repeated inputs from an
// exact-match response cache. Workers autoscale their per-model replica
// counts from the live serve_* queue gauges. See docs/fleet-protocol.md
// for the protocol and the routing state machine.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/appmult/retrain/internal/fleet"
	"github.com/appmult/retrain/internal/obs"
	"github.com/appmult/retrain/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleetd: ")
	var (
		role = flag.String("role", "", "node role: router|worker")

		// Router flags.
		addr       = flag.String("addr", ":9100", "router: fleet TCP address workers dial")
		httpAddr   = flag.String("http", ":8090", "router: client HTTP API address")
		cacheMB    = flag.Int("cache-mb", 0, "router: response cache budget in MiB (0: disabled)")
		hbEvery    = flag.Duration("heartbeat", 500*time.Millisecond, "router: worker ping cadence")
		hbTimeout  = flag.Duration("heartbeat-timeout", 5*time.Second, "router: declare a worker dead after this pong silence")
		minWorkers = flag.Int("min-workers", 0, "router: wait for this many workers before serving HTTP")

		// Worker flags.
		router   = flag.String("router", "localhost:9100", "worker: router fleet address to join")
		name     = flag.String("name", "default", "worker: model name clients use in /v1/predict")
		model    = flag.String("model", "lenet", "worker: model kind: lenet|vgg11|vgg16|vgg19|resnet18|resnet34|resnet50")
		classes  = flag.Int("classes", 10, "worker: number of classes")
		hw       = flag.Int("hw", 16, "worker: input resolution (square, 3 channels)")
		width    = flag.Float64("width", 0.125, "worker: channel-width multiplier (1.0 = paper scale)")
		mult     = flag.String("mult", "", "worker: approximate multiplier name (default: accurate 8-bit)")
		ckpt     = flag.String("ckpt", "", "worker: TRCKPv1 checkpoint to serve (empty: fresh seeded weights)")
		replicas = flag.Int("replicas", 1, "worker: initial inference replicas per model")
		seed     = flag.Int64("seed", 1, "worker: init seed when no checkpoint is given")

		metricsA = flag.String("metrics-addr", "", "optional debug listener for /metrics and /debug/pprof")
	)
	flag.Parse()

	if *metricsA != "" {
		go func() { log.Fatal(obs.ListenAndServe(*metricsA, obs.Default())) }()
		log.Printf("observability endpoint on %s (/metrics, /debug/pprof)", *metricsA)
	}

	switch *role {
	case "router":
		runRouter(*addr, *httpAddr, *cacheMB, *hbEvery, *hbTimeout, *minWorkers)
	case "worker":
		runWorker(*router, serve.Spec{
			Name: *name, Kind: *model, Classes: *classes, InputHW: *hw, Width: *width,
			Mult: *mult, Ckpt: *ckpt, Replicas: *replicas, Seed: *seed,
		})
	default:
		log.Fatalf("-role must be router or worker (got %q)", *role)
	}
}

// runRouter serves the router role with hedging on and
// fleet.RouterConfig's default replica set, admission limit and hedge
// deadline.
func runRouter(addr, httpAddr string, cacheMB int, hbEvery, hbTimeout time.Duration, minWorkers int) {
	r, err := fleet.NewRouter(fleet.RouterConfig{
		Addr:             addr,
		Hedge:            true,
		CacheBytes:       cacheMB << 20,
		HeartbeatEvery:   hbEvery,
		HeartbeatTimeout: hbTimeout,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	log.Printf("router: fleet on %s, HTTP on %s (cache=%dMiB)", r.Addr(), httpAddr, cacheMB)
	if minWorkers > 0 {
		if err := r.AwaitWorkers(minWorkers, time.Minute); err != nil {
			log.Fatal(err)
		}
		log.Printf("router: %d workers registered", r.Workers())
	}
	hs := &http.Server{Addr: httpAddr, Handler: r.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("router: %s: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
}

// runWorker serves the worker role, autoscaling the model's replicas
// from the live queue gauges.
func runWorker(router string, spec serve.Spec) {
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Router:    router,
		Models:    []serve.Spec{spec},
		Autoscale: true,
		Logf:      log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("worker: %s: draining", s)
		dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer dcancel()
		w.Drain(dctx)
		cancel()
	}()
	log.Printf("worker: hosting %s %q, joining %s", spec.Kind, spec.Name, router)
	if err := w.Run(ctx); err != nil && err != context.Canceled {
		log.Fatal(err)
	}
}
