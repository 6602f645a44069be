package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dn"
)

// instances is how many clusters an end-to-end run builds in turn, each
// in a child process of its own: it is set up, measured for an equal
// share of --seconds, checked and stopped, and the run reports medians
// over them (see the package comment). A process of its own keeps a
// stopped cluster out of the next one's heap and CPU: after Cluster.Stop
// a cluster can stay reachable from a goroutine that outlives it.
const instances = 4

// runLimit bounds one invocation: past it the benchmark reports a hang
// and exits non-zero instead of running on.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	root     string
	instance int       // > 0: this process is that end-to-end instance
	diag     io.Writer // diagnostics: standard error
}

// run is the whole benchmark invocation; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o := options{diag: stderr}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "", "workload: oltp-point, oltp-write or tpch-ap")
	fl.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed makes the same inputs")
	fl.IntVar(&o.seconds, "seconds", 10, "length of each measured window")
	fl.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced run")
	fl.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for provenance")
	fl.StringVar(&o.root, "root", ".", "repository root, hashed for provenance")
	fl.IntVar(&o.instance, "instance", 0, "internal: run one end-to-end cluster and print its window")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "perfbench: %s seed %d still running after %v: hung\n", o.workload, o.seed, runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if o.instance > 0 {
		return runInstance(newW, o, stdout)
	}

	prov, err := measureProvenance(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printJSON(stdout, map[string]any{"provenance": prov})

	var res result
	if o.trace == 0 {
		res, err = runEndToEnd(o, stdout)
	} else {
		res, err = runPerLayer(newW, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		// A wrong answer in a measured window is a result with
		// correct=false; a run that measured nothing leaves no result.
		var ce *checkError
		if errors.As(err, &ce) && res.Attempted > 0 {
			printJSON(stdout, res)
		}
		return 1
	}
	res.Correct = true
	printJSON(stdout, res)
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are printed
	}
	fmt.Fprintf(w, "%s\n", b)
}

// ---- runs -----------------------------------------------------------------

// runEndToEnd measures instances clusters in turn, each in a child
// process, with tracing and metrics off. Each end-to-end metric is the
// median over the clusters.
func runEndToEnd(o options, stdout io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	// Kill a hung child before the watchdog ends this process, so no
	// child outlives it.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit-5*time.Second)
	defer cancel()
	var setup, rate, p50, p99, heap, qGeo []float64
	var attempted, failed int64
	for i := 1; i <= instances; i++ {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, self, "--instance", fmt.Sprint(i), "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &out, o.diag
		runErr := cmd.Run()
		var ir instanceResult
		if line := lastLine(out.String()); line != "" {
			if err := json.Unmarshal([]byte(line), &ir); err != nil {
				return result{}, fmt.Errorf("instance %d of %d printed %q: %w", i, instances, line, err)
			}
			fmt.Fprintln(stdout, line)
			attempted += ir.Attempted
			failed += ir.Failed
		}
		switch {
		case ir.WrongAnswer != "":
			return result{Attempted: attempted, Failed: failed}, &checkError{msg: ir.WrongAnswer}
		case runErr != nil:
			return result{}, fmt.Errorf("instance %d of %d: %w", i, instances, runErr)
		}
		setup = append(setup, ir.SetupS)
		rate = append(rate, ir.OpsPerS)
		p50 = append(p50, ir.P50Ms)
		p99 = append(p99, ir.P99Ms)
		heap = append(heap, ir.HeapMB)
		qGeo = append(qGeo, ir.QGeomeanMs)
	}
	return result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":      {median(setup), "s"},
		"ops_per_s":    {median(rate), "1/s"},
		"p50_ms":       {median(p50), "ms"},
		"p99_ms":       {median(p99), "ms"},
		"ok_ratio":     {float64(attempted-failed) / float64(attempted), "ratio"},
		"heap_mb":      {median(heap), "MB"},
		"q_geomean_ms": {median(qGeo), "ms"},
	}}, nil
}

// instanceResult is what one end-to-end instance prints as its last
// line. WrongAnswer is set when an output check failed.
type instanceResult struct {
	Instance    int            `json:"instance"`
	SetupS      float64        `json:"setup_s"`
	OpsPerS     float64        `json:"ops_per_s"`
	P50Ms       float64        `json:"p50_ms"`
	P99Ms       float64        `json:"p99_ms"`
	HeapMB      float64        `json:"heap_mb"`
	QGeomeanMs  float64        `json:"q_geomean_ms"`
	Attempted   int64          `json:"attempted"`
	Failed      int64          `json:"failed"`
	Window      map[string]any `json:"window"`
	WrongAnswer string         `json:"wrong_answer,omitempty"`
}

// runInstance is one end-to-end instance: set up, measure, check, stop.
// It prints an instanceResult once a window was measured.
func runInstance(newW func() workload, o options, stdout io.Writer) int {
	e, d, err := setUp(newW, o.seed, false)
	if err != nil {
		fmt.Fprintf(o.diag, "perfbench: %s seed %d: set-up: %v\n", o.workload, o.seed, err)
		return 1
	}
	win, err := measure(e, o)
	if err == nil {
		err = win.lat.err
	}
	if err == nil {
		err = win.verdict(e, o.diag)
	}
	e.stop()
	if win != nil {
		ir := instanceResult{Instance: o.instance, SetupS: d.Seconds(), OpsPerS: win.opsPerSec(),
			P50Ms: ms(win.lat.p50), P99Ms: ms(win.lat.p99), HeapMB: float64(win.heapEnd) / 1e6,
			QGeomeanMs: win.lat.qGeomeanMs, Attempted: win.attempted, Failed: win.failed,
			Window: win.info()}
		var ce *checkError
		if errors.As(err, &ce) {
			ir.WrongAnswer = ce.msg
		}
		printJSON(stdout, ir)
	}
	if err != nil {
		fmt.Fprintf(o.diag, "perfbench: %s seed %d: %v\n", o.workload, o.seed, err)
		return 1
	}
	return 0
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// runPerLayer measures one cluster untraced (for the runtime counters
// and the tracing overhead), then a fresh one with Config.Tracing and
// Config.Metrics on, each for one instance's share of --seconds, and
// reports the per-layer metrics of the traced window.
func runPerLayer(newW func() workload, o options, stdout io.Writer) (result, error) {
	e, _, err := setUp(newW, o.seed, false)
	if err != nil {
		return result{}, fmt.Errorf("untraced set-up: %w", err)
	}
	plain, err := measure(e, o)
	if err == nil {
		err = plain.verdict(e, o.diag)
	}
	e.stop()
	if err != nil {
		return result{}, fmt.Errorf("untraced run: %w", err)
	}

	et, _, err := setUp(newW, o.seed, true)
	if err != nil {
		return result{}, fmt.Errorf("traced set-up: %w", err)
	}
	defer et.stop()
	win, err := measure(et, o)
	if err != nil {
		return result{}, err
	}
	printJSON(stdout, map[string]any{"window": win.info(), "untraced_window": plain.info()})
	printJSON(stdout, map[string]any{"spans": win.spans})
	res := result{Attempted: win.attempted, Failed: win.failed, Metrics: perLayer(et, win, plain)}
	return res, win.verdict(et, o.diag)
}

// ---- set-up -----------------------------------------------------------------

// env is one built and loaded cluster.
type env struct {
	c      *core.Cluster
	w      workload
	traced bool
	st     setupStats
	lag    *lagSampler
}

// setupStats records what set-up measured on the way.
type setupStats struct {
	// catchup runs from the end of the load to RO convergence.
	catchup time.Duration
}

// setUp builds the workload's cluster, loads and warms it, and returns
// the set-up wall time.
func setUp(newW func() workload, seed int64, traced bool) (*env, time.Duration, error) {
	start := time.Now()
	w := newW()
	cfg := w.config()
	cfg.Tracing, cfg.Metrics = traced, traced
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, 0, err
	}
	e := &env{c: c, w: w, traced: traced, lag: startLagSampler(c, cfg.ROsPerDN > 0)}
	if err := w.load(c, seed, &e.st); err != nil {
		e.stop()
		return nil, 0, err
	}
	return e, time.Since(start), nil
}

func (e *env) stop() {
	e.lag.close()
	e.c.Stop()
}

// leaders returns the DN group leaders.
func leaders(c *core.Cluster) []*dn.Instance {
	var out []*dn.Instance
	for g := 0; ; g++ {
		inst, err := c.DNGroup(fmt.Sprintf("dng%d", g))
		if err != nil {
			return out
		}
		out = append(out, inst)
	}
}

// lagSampler samples every RO's lag behind its group's DLSN, in redo
// bytes, from cluster build to the end of the run.
type lagSampler struct {
	stop chan struct{}
	done chan struct{}
	max  atomic.Int64
	once sync.Once
}

const lagSampleEvery = 2 * time.Millisecond

// startLagSampler starts sampling; without ROs it samples nothing and
// starts no goroutine.
func startLagSampler(c *core.Cluster, haveROs bool) *lagSampler {
	l := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	if !haveROs {
		close(l.done)
		return l
	}
	go func() {
		defer close(l.done)
		t := time.NewTicker(lagSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
			}
			for _, inst := range leaders(c) {
				dlsn := inst.Paxos().DLSN()
				for _, ro := range inst.ROs() {
					if lag := int64(dlsn) - int64(ro.AppliedLSN()); lag > l.max.Load() {
						l.max.Store(lag)
					}
				}
			}
		}
	}()
	return l
}

// close stops the sampler, waits for it, and returns the largest lag.
func (l *lagSampler) close() int64 {
	l.once.Do(func() { close(l.stop) })
	<-l.done
	return l.max.Load()
}

// ---- the measured window ----------------------------------------------------

// samples holds op latencies by op class.
type samples [][]time.Duration

// window is what one measured window observed.
type window struct {
	sessions          int
	attempted, failed int64
	elapsed           time.Duration
	firstErr          error // first failed op
	checkErr          error // first failed output check
	before, after     counters
	mem0, mem1        runtime.MemStats
	lat               latencyStats
	// heapSetup and heapEnd are the live heap after a forced GC, before
	// and after the window, when the latency samples are already dead.
	heapSetup, heapEnd uint64
	perSec             []int64
	goroutines         int // running when the window starts
	spans              fold
	parse              time.Duration
}

type client struct {
	ss                *session
	op                opFunc
	byClass           samples
	perSec            []int64 // ops started in each second of the window
	attempted, failed int64
	firstErr          error
	checkErr          error
}

// measure runs one closed-loop client per CPU, spread round-robin over
// the CNs, for one instance's share of o.seconds, and folds what they
// saw.
func measure(e *env, o options) (*window, error) {
	length := time.Duration(o.seconds) * time.Second / instances
	seconds := int((length + time.Second - 1) / time.Second)
	cns := e.c.CNs()
	clients := make([]*client, runtime.NumCPU())
	for i := range clients {
		ss := newSession(cns[i%len(cns)].NewSession(), e.traced)
		op, err := e.w.newOp(ss, o.seed, i, len(clients))
		if err != nil {
			return nil, err
		}
		clients[i] = &client{ss: ss, op: op, byClass: make(samples, e.w.classes()),
			perSec: make([]int64, seconds)}
	}
	win := &window{sessions: len(clients), perSec: make([]int64, seconds)}
	win.heapSetup = liveHeap(&win.mem0)
	win.goroutines = runtime.NumGoroutine()
	win.before = snapshot(e.c)
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				class, lat, err := cl.op()
				cl.perSec[int(now.Sub(start)/time.Second)]++
				cl.attempted++
				if err == nil {
					cl.byClass[class] = append(cl.byClass[class], lat)
					continue
				}
				cl.failed++
				var ce *checkError
				switch {
				case errors.As(err, &ce):
					if cl.checkErr == nil {
						cl.checkErr = err
					}
				case cl.firstErr == nil:
					cl.firstErr = err
				}
			}
		}(cl)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	win.after = snapshot(e.c)
	runtime.ReadMemStats(&win.mem1)

	win.spans = fold{}
	all := make(samples, e.w.classes())
	for _, cl := range clients {
		win.attempted += cl.attempted
		win.failed += cl.failed
		for i, n := range cl.perSec {
			win.perSec[i] += n
		}
		if win.firstErr == nil {
			win.firstErr = cl.firstErr
		}
		if win.checkErr == nil {
			win.checkErr = cl.checkErr
		}
		for k, s := range cl.byClass {
			all[k] = append(all[k], s...)
		}
		if cl.ss.spans != nil {
			win.spans.merge(cl.ss.spans)
		}
		win.parse += cl.ss.parse
	}
	if win.attempted == 0 {
		return nil, errors.New("no op completed in the window")
	}
	win.lat = all.latencies()
	// The samples are dead from here on, so heapEnd is the program's
	// live heap, not the benchmark's sample buffers.
	win.heapEnd = liveHeap(&runtime.MemStats{})
	return win, nil
}

// liveHeap forces a GC and returns the live heap; m receives the
// memory stats.
func liveHeap(m *runtime.MemStats) uint64 {
	runtime.GC()
	runtime.ReadMemStats(m)
	return m.HeapAlloc
}

func (w *window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.elapsed.Seconds()
}

// verdict runs the workload's after-run checks and reports the first
// failed output check, if any. Failed ops do not fail the run: they are
// counted in failed and ok_ratio, and the first is logged to diag.
func (w *window) verdict(e *env, diag io.Writer) error {
	if w.firstErr != nil {
		fmt.Fprintf(diag, "perfbench: %d of %d ops failed, first: %v\n", w.failed, w.attempted, w.firstErr)
	}
	if w.checkErr != nil {
		return w.checkErr
	}
	return e.w.verify(e.c)
}

func (w *window) info() map[string]any {
	return map[string]any{
		"sessions":           w.sessions,
		"goroutines":         w.goroutines,
		"ops":                w.attempted,
		"window_s":           w.elapsed.Seconds(),
		"ops_by_second":      w.perSec,
		"heap_mb":            float64(w.heapEnd) / 1e6,
		"p50_ms":             ms(w.lat.p50),
		"p99_ms":             ms(w.lat.p99),
		"latency_samples":    w.lat.n,
		"samples_beyond_p99": w.lat.n - int(math.Ceil(0.99*float64(w.lat.n))),
	}
}

// latencyStats are the order statistics of one window's samples; err
// says why they could not be taken.
type latencyStats struct {
	n          int
	p50, p99   time.Duration
	qGeomeanMs float64
	err        error
}

// latencies computes the order statistics; it sorts the samples.
func (s samples) latencies() latencyStats {
	var all []time.Duration
	var medians []float64
	for k, c := range s {
		if len(c) == 0 {
			return latencyStats{err: fmt.Errorf("op class %d never completed", k)}
		}
		sortDurations(c)
		medians = append(medians, ms(durationMedian(c)))
		all = append(all, c...)
	}
	sortDurations(all)
	st := latencyStats{n: len(all), qGeomeanMs: geomean(medians)}
	if st.p50, st.err = quantile(all, 0.50); st.err == nil {
		st.p99, st.err = quantile(all, 0.99)
	}
	return st
}

// ---- provenance -------------------------------------------------------------

type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	// TimerFloorUs is the median wall time of time.Sleep(100µs) on this
	// host: the shortest wait any simulated delay can really take.
	TimerFloorUs float64 `json:"timer_floor_us"`
}

func measureProvenance(o options) (provenance, error) {
	src, err := sourceHash(o.root)
	if err != nil {
		return provenance{}, fmt.Errorf("hash sources: %w", err)
	}
	return provenance{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: o.commit, SourceHash: src, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		TimerFloorUs: us(timerFloor()),
	}, nil
}

// timerFloor is the median of 50 measured time.Sleep(100µs) calls.
func timerFloor() time.Duration {
	ds := make([]time.Duration, 50)
	for i := range ds {
		start := time.Now()
		time.Sleep(100 * time.Microsecond)
		ds[i] = time.Since(start)
	}
	return durationMedian(ds)
}

// sourceHash hashes every Go source and module file under root, so a
// result names the code it measured even outside a git work tree.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
