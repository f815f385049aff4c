package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/appmult/retrain/internal/obs"
)

// runCtx is what one workload run is given.
type runCtx struct {
	seed    int64
	seconds float64 // length the measured phase is sized for
	trace   bool
	setups  int    // K from-scratch set-ups (0: the workload's default)
	outDir  string // trace files and scratch files go here
	prog    *progress
}

// progress is what the child streams to its supervisor: on a crash the
// supervisor counts planned - ok ops as failed.
type progress struct {
	planned atomic.Int64
	ok      atomic.Int64
	failed  atomic.Int64
}

// phaseStats brackets one phase with the process-wide counters the
// end-to-end memory metrics and the run.* context come from.
type phaseStats struct {
	start time.Time
	mem   runtime.MemStats
	cpu   time.Duration

	wall        time.Duration
	cpuUsed     time.Duration
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	heapInuseMB float64
}

// beginPhase collects garbage and snapshots the counters. ReadMemStats
// stops the world, so it sits outside every timed op.
func beginPhase() *phaseStats {
	p := &phaseStats{}
	runtime.GC()
	runtime.ReadMemStats(&p.mem)
	p.cpu = cpuTime()
	p.start = time.Now()
	return p
}

func (p *phaseStats) finish() {
	p.wall = time.Since(p.start)
	p.cpuUsed = cpuTime() - p.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mallocs = m.Mallocs - p.mem.Mallocs
	p.allocBytes = m.TotalAlloc - p.mem.TotalAlloc
	p.gcCycles = m.NumGC - p.mem.NumGC
	p.gcPauseNs = m.PauseTotalNs - p.mem.PauseTotalNs
	p.heapInuseMB = float64(m.HeapInuse) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// opSample is the per-op record of a measured phase.
type opSample struct {
	ms    []float64 // op time, completed ops only (retrain_*: speed-normalised)
	class []uint8   // request class of ms[i] (all 0 without classes)
}

// measured is everything the end-to-end metrics are computed from.
type measured struct {
	ops         opSample
	planned     int
	ok          int // succeeded and verified
	imagesPerOp int
	clients     int
	stats       *phaseStats
	peakRSSMB   float64
	setupS      []float64 // retrain_*: already divided by the speed factor around each
}

func (m *measured) endToEnd() map[string]float64 {
	out := map[string]float64{}
	out["setup_s"] = percentile(m.setupS, 0.25)
	out["op_ms_p10"] = stratified(m.ops.ms, m.ops.class, p10)
	if half := stratified(m.ops.ms, m.ops.class, trimmedHalfMean); half > 0 {
		out["images_per_s"] = float64(m.imagesPerOp*m.clients) / (half / 1e3)
	}
	if m.planned > 0 {
		out["ok_share"] = float64(m.ok) / float64(m.planned)
	}
	out["peak_rss_mb"] = m.peakRSSMB
	if n := len(m.ops.ms); n > 0 && m.stats != nil {
		out["allocs_per_op"] = float64(m.stats.mallocs) / float64(n)
		out["alloc_kb_per_op"] = float64(m.stats.allocBytes) / 1e3 / float64(n)
	}
	return out
}

// runContext fills the ungated run.* metrics from an untraced phase.
func runContext(out map[string]float64, ops opSample, imagesPerOp int, st *phaseStats) {
	n := len(ops.ms)
	if n == 0 {
		return
	}
	out["run.op_ms_p50"] = p50(ops.ms)
	out["run.op_ms_p90"] = percentile(ops.ms, 0.90)
	if v, ok := tailPercentile(ops.ms, 0.99, 10); ok {
		out["run.op_ms_p99"] = v
	}
	out["run.images_per_s_wall"] = float64(n*imagesPerOp) / st.wall.Seconds()
	out["run.cpu_ms_per_op"] = float64(st.cpuUsed) / 1e6 / float64(n)
	out["run.cpu_util"] = st.cpuUsed.Seconds() / st.wall.Seconds()
	out["run.gc_cycles"] = float64(st.gcCycles)
	out["run.gc_pause_ms"] = float64(st.gcPauseNs) / 1e6
	out["run.heap_inuse_mb"] = st.heapInuseMB
	out["run.maxprocs"] = float64(runtime.GOMAXPROCS(0))
}

// counters snapshots obs series so a phase can report exact deltas.
type counters map[string]float64

type series struct {
	key    string
	name   string
	labels []string
}

var watched = []series{
	{"fwd_arith", "nn_kernel_dispatch_total", []string{"kernel", "forward", "path", "arith"}},
	{"fwd_packed16", "nn_kernel_dispatch_total", []string{"kernel", "forward", "path", "packed16"}},
	{"fwd_blocked", "nn_kernel_dispatch_total", []string{"kernel", "forward", "path", "blocked"}},
	{"fwd_behavioral", "nn_kernel_dispatch_total", []string{"kernel", "forward", "path", "behavioral"}},
	{"fwd_ref", "nn_kernel_dispatch_total", []string{"kernel", "forward", "path", "ref"}},
	{"bwd_affine", "nn_kernel_dispatch_total", []string{"kernel", "backward", "path", "affine"}},
	{"bwd_mixed", "nn_kernel_dispatch_total", []string{"kernel", "backward", "path", "mixed"}},
	{"bwd_fused", "nn_kernel_dispatch_total", []string{"kernel", "backward", "path", "fused"}},
	{"bwd_small", "nn_kernel_dispatch_total", []string{"kernel", "backward", "path", "small"}},
	{"bwd_ref", "nn_kernel_dispatch_total", []string{"kernel", "backward", "path", "ref"}},
	{"pool_pooled", "tensor_pool_jobs_total", []string{"mode", "pooled"}},
	{"pool_inline", "tensor_pool_jobs_total", []string{"mode", "inline"}},
	{"pool_blocks", "tensor_pool_blocks_total", nil},
	{"dist_frames_sent", "dist_frames_sent_total", nil},
	{"dist_frames_recv", "dist_frames_recv_total", nil},
	{"dist_bytes_sent", "dist_frame_bytes_sent_total", nil},
	{"dist_bytes_recv", "dist_frame_bytes_recv_total", nil},
	{"dist_retries", "dist_step_retries_total", nil},
	{"dist_reassign", "dist_slice_reassignments_total", nil},
	{"fleet_frames_sent", "fleet_frames_sent_total", nil},
	{"fleet_frames_recv", "fleet_frames_recv_total", nil},
	{"fleet_bytes_sent", "fleet_frame_bytes_sent_total", nil},
	{"fleet_bytes_recv", "fleet_frame_bytes_recv_total", nil},
	{"fleet_hits", "fleet_cache_hits_total", nil},
	{"fleet_misses", "fleet_cache_misses_total", nil},
	{"fleet_evictions", "fleet_cache_evictions_total", nil},
	{"serve_rejected", "serve_requests_total", []string{"model", servedModel, "outcome", "rejected"}},
	{"serve_expired", "serve_requests_total", []string{"model", servedModel, "outcome", "expired"}},
	{"serve_failed", "serve_requests_total", []string{"model", servedModel, "outcome", "failed"}},
}

// servedModel is the model name the serve and fleet workloads register.
const servedModel = "bench"

func readCounters() counters {
	c := counters{}
	for _, s := range watched {
		v, _ := obs.Default().ReadValue(s.name, s.labels...)
		c[s.key] = v
	}
	return c
}

// since returns the deltas against an earlier snapshot.
func (c counters) since(before counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// dispatchPerOp turns kernel-dispatch deltas into the nn.dispatch.*
// counts.
func dispatchPerOp(out map[string]float64, d counters, ops int) {
	n := float64(ops)
	out["nn.dispatch.fwd_arith_per_op"] = d["fwd_arith"] / n
	out["nn.dispatch.bwd_fused_per_op"] = d["bwd_fused"] / n
	out["nn.dispatch.bwd_affine_per_op"] = d["bwd_affine"] / n
	out["nn.dispatch.bwd_small_per_op"] = d["bwd_small"] / n
	out["nn.dispatch.other_per_op"] = (d["fwd_packed16"] + d["fwd_blocked"] + d["fwd_behavioral"] +
		d["fwd_ref"] + d["bwd_mixed"] + d["bwd_ref"]) / n
	out["tensor.pool_jobs_per_op"] = (d["pool_pooled"] + d["pool_inline"]) / n
	out["tensor.pool_blocks_per_op"] = d["pool_blocks"] / n
}

// histMedianSince is the median of the observations a histogram took
// between two snapshots (bucket-interpolated, as the registry does).
func histMedianSince(name string, before obs.HistogramSnapshot) float64 {
	now, ok := obs.Default().ReadHistogram(name)
	if !ok {
		return 0
	}
	d := obs.HistogramSnapshot{Bounds: now.Bounds, Cumulative: make([]uint64, len(now.Cumulative)),
		Count: now.Count - before.Count, Sum: now.Sum - before.Sum}
	for i := range d.Cumulative {
		d.Cumulative[i] = now.Cumulative[i]
		if i < len(before.Cumulative) {
			d.Cumulative[i] -= before.Cumulative[i]
		}
	}
	return d.Quantile(0.5)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// logf receives the program's own progress and failure lines (joins,
// lost workers). They go to stderr, where the supervisor keeps the last
// few for a crash report.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "  program: "+format+"\n", args...)
}

// dropReadDeadlines is the WrapConn hook the dist coordinator and the
// fleet router are given. Both set a 10 s read deadline for a joining
// worker's handshake and then switch their frame reader to "no
// timeout" without clearing the deadline already armed on the socket,
// so every worker is dropped with "i/o timeout" 10 s after it joins
// and has to reconnect (README.md, "Defects found while sizing"). A
// measured phase is longer than that, so the benchmark keeps read
// deadlines off the accepted connections; liveness stays with the
// heartbeat monitors, as the code intends.
func dropReadDeadlines(c net.Conn) net.Conn { return noReadDeadline{c} }

type noReadDeadline struct{ net.Conn }

func (noReadDeadline) SetReadDeadline(time.Time) error { return nil }
