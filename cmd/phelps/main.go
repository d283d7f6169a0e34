// Command phelps runs a single workload on the simulator under a chosen
// configuration and prints its performance metrics.
//
// Examples:
//
//	phelps -workload astar -mode phelps
//	phelps -workload bfs -mode baseline -pred perfect
//	phelps -workload guarded -mode runahead -epoch 50000
//	phelps -workload astar -config br-12w
//	phelps -workload xz -sampled
//	phelps -workload astar -json -interval 10000 -trace astar.kanata
//	phelps -list
//	phelps -list-configs
//	phelps -list-specs
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"phelps/internal/core"
	"phelps/internal/obs"
	"phelps/internal/sim"
)

func main() {
	var (
		workload  = flag.String("workload", "astar", "workload name (see -list)")
		mode      = flag.String("mode", "phelps", "baseline | phelps | runahead | half")
		cfgName   = flag.String("config", "", "run a registered configuration by name (see -list-configs; overrides -mode/-pred)")
		predName  = flag.String("pred", "tage", "tage | perfect | bimodal | gshare")
		epoch     = flag.Uint64("epoch", 0, "epoch length in instructions (0 = workload default)")
		quick     = flag.Bool("quick", false, "use reduced workload sizes")
		rob       = flag.Int("rob", 0, "override ROB size (scales PRF/LQ/SQ/IQ)")
		depth     = flag.Int("depth", 0, "override pipeline depth")
		list      = flag.Bool("list", false, "list available workloads and exit")
		listCfgs  = flag.Bool("list-configs", false, "list registered configurations and exit")
		listSpecs = flag.Bool("list-specs", false, "list registered workload specs with epochs (registry order) and exit")
		verbose   = flag.Bool("v", false, "print detailed Phelps statistics")
		jsonOut   = flag.Bool("json", false, "emit a machine-readable JSON summary instead of text")
		traceOut  = flag.String("trace", "", "write a Konata pipeline trace of the main thread to this file")
		interval  = flag.Uint64("interval", 0, "sample counters every N cycles into the JSON time series")
		sampled   = flag.Bool("sampled", false, "SimPoint-sampled run: functional fast-forward + k measured intervals")
		checks    = flag.Bool("checks", false, "enable per-cycle microarchitectural invariant checks")
		lockstep  = flag.Bool("lockstep", false, "enable the lockstep retirement oracle (differential verification)")
		spIvl     = flag.Uint64("sp-interval", 0, "sampled: interval length in instructions (0 = auto)")
		spK       = flag.Int("sp-k", 0, "sampled: number of SimPoints (0 = default)")
		spWarm    = flag.Uint64("sp-warmup", 0, "sampled: cycle-accurate warmup instructions per point (0 = default)")
		spWork    = flag.Int("sp-workers", 0, "sampled: concurrent SimPoint measurements (0 = one per core, 1 = serial; results are bit-identical)")
		ckptDir   = flag.String("ckpt-dir", os.Getenv("PHELPS_CKPT_DIR"), "sampled: persistent checkpoint-cache directory (default $PHELPS_CKPT_DIR; empty = no cache)")

		submit    = flag.Bool("submit", false, "submit a job to a phelpsd daemon instead of simulating locally")
		server    = flag.String("server", "http://127.0.0.1:8077", "submit: phelpsd base URL")
		workloads = flag.String("workloads", "", "submit: comma-separated workload names (default: -workload)")
		configs   = flag.String("configs", "", "submit: comma-separated configuration names (default: -config or base)")
		seed      = flag.Uint64("seed", 0, "sampled-pipeline clustering seed (local and submit)")
	)
	flag.Parse()

	if *submit {
		os.Exit(runSubmit(submitOptions{
			server:    *server,
			workloads: *workloads,
			configs:   *configs,
			fallbackW: *workload,
			fallbackC: *cfgName,
			quick:     *quick,
			sampled:   *sampled,
			seed:      *seed,
			checks:    *checks,
			lockstep:  *lockstep,
			jsonOut:   *jsonOut,
		}))
	}

	if *listCfgs {
		for _, n := range sim.ConfigNames() {
			fmt.Printf("%-16s %s\n", n, sim.ConfigDescription(n))
		}
		return
	}

	if *listSpecs {
		// Registry order (suite by suite), unlike -list's sorted names, so
		// the listing mirrors what RunMatrix and -explore iterate over.
		for _, s := range sim.AllSpecs(*quick) {
			fmt.Printf("%-16s epoch %d\n", s.Name, s.Epoch)
		}
		return
	}

	specs := map[string]sim.Spec{}
	for _, s := range sim.AllSpecs(*quick) {
		specs[s.Name] = s
	}

	if *list {
		var names []string
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	spec, ok := specs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *workload)
		os.Exit(1)
	}
	ep := spec.Epoch
	if *epoch != 0 {
		ep = *epoch
	}

	var cfg sim.Config
	modeLabel := *mode
	if *cfgName != "" {
		c, err := sim.ConfigByName(*cfgName, ep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		cfg = c
		modeLabel = *cfgName
	} else {
		switch *mode {
		case "baseline":
			cfg = sim.DefaultConfig()
		case "phelps":
			cfg = sim.PhelpsConfig(ep)
		case "runahead":
			cfg = sim.DefaultConfig()
			cfg.Mode = sim.ModeRunahead
			cfg.Runahead.EpochLen = ep
		case "half":
			cfg = sim.DefaultConfig()
			cfg.ForcePartition = true
		default:
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(1)
		}
		switch *predName {
		case "tage":
			cfg.Predictor = sim.PredTAGE
		case "perfect":
			cfg.Predictor = sim.PredPerfect
		case "bimodal":
			cfg.Predictor = sim.PredBimodal
		case "gshare":
			cfg.Predictor = sim.PredGshare
		default:
			fmt.Fprintf(os.Stderr, "unknown predictor %q\n", *predName)
			os.Exit(1)
		}
	}
	cfg.Checks = *checks
	cfg.Lockstep = *lockstep
	if *rob != 0 || *depth != 0 {
		r, d := cfg.Core.ROB, cfg.Core.PipelineDepth
		if *rob != 0 {
			r = *rob
		}
		if *depth != 0 {
			d = *depth
		}
		f := float64(r) / 632
		cfg.Core.ROB = r
		cfg.Core.PRF = int(696*f) + 32
		cfg.Core.LQ = int(144 * f)
		cfg.Core.SQ = int(144 * f)
		cfg.Core.IQ = int(128 * f)
		cfg.Core.PipelineDepth = d
	}

	// Any observability flag attaches a collector; -trace additionally
	// attaches a Konata pipeline tracer, flushed after the run completes.
	var coll *obs.Collector
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *jsonOut || *traceOut != "" || *interval > 0 {
		if *sampled && (*traceOut != "" || *interval > 0) {
			fmt.Fprintf(os.Stderr, "-sampled does not support -trace or -interval\n")
			os.Exit(1)
		}
		if !*sampled {
			coll = obs.NewCollector(*interval)
			cfg.Obs = coll
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
					os.Exit(1)
				}
				traceFile = f
				traceBuf = bufio.NewWriter(f)
				coll.Trace = obs.NewKonataWriter(traceBuf)
			}
		}
	}

	var res sim.Result
	var runErr error
	if *sampled {
		runSpec := spec
		runSpec.Epoch = ep
		workers := *spWork
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		sc := sim.SampleConfig{
			IntervalLen: *spIvl, K: *spK, WarmupInsts: *spWarm,
			Workers: workers, Seed: *seed,
		}
		if *ckptDir != "" {
			sc.Ckpts = sim.NewCkptCache(*ckptDir)
		}
		res, runErr = sim.SampledRun(runSpec, cfg, sc)
	} else {
		res, runErr = sim.Run(spec.Build(), cfg)
	}

	if traceFile != nil {
		err := coll.Trace.Flush()
		if err == nil {
			err = traceBuf.Flush()
		}
		if err == nil {
			err = traceFile.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		emitJSON(spec.Name, modeLabel, *predName, ep, &res, runErr, coll)
		if errors.Is(runErr, sim.ErrVerify) {
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload       %s\n", spec.Name)
	fmt.Printf("mode           %s (predictor %s, epoch %d)\n", modeLabel, *predName, ep)
	fmt.Printf("instructions   %d\n", res.Retired)
	fmt.Printf("cycles         %d\n", res.Cycles)
	fmt.Printf("IPC            %.3f\n", res.IPC())
	fmt.Printf("MPKI           %.2f (%d mispredicts / %d cond. branches)\n",
		res.MPKI(), res.Mispredicts, res.CondBranches)
	if res.QueuePreds > 0 {
		fmt.Printf("queue preds    %d consumed, %d wrong\n", res.QueuePreds, res.QueueMisps)
	}
	if s := res.Sampled; s != nil {
		if s.FullRun {
			fmt.Printf("sampled        fell back to a full run (%d intervals < minimum)\n", s.Intervals)
		} else {
			fmt.Printf("sampled        %d points over %d intervals of %d insts\n",
				len(s.Points), s.Intervals, s.IntervalLen)
			for _, p := range s.Points {
				fmt.Printf("  point @%-9d weight %.3f  warm %d  measured %d  IPC %.3f  MPKI %.2f\n",
					p.StartInst, p.Weight, p.Warmed, p.Measured, p.IPC, p.MPKI)
			}
		}
	}
	switch {
	case errors.Is(runErr, sim.ErrVerify):
		fmt.Printf("VERIFY FAILED  %v\n", runErr)
		os.Exit(1)
	case errors.Is(runErr, sim.ErrLivelock):
		fmt.Printf("TIMED OUT      %v\n", runErr)
	case runErr != nil:
		fmt.Printf("RUN FAILED     %v\n", runErr)
		os.Exit(1)
	default:
		fmt.Printf("verification   ok\n")
	}

	if *verbose && cfg.Mode == sim.ModePhelps {
		p := res.Phelps
		fmt.Printf("\nPhelps statistics\n")
		fmt.Printf("  triggers/terminations  %d / %d\n", p.Triggers, p.Terminations)
		fmt.Printf("  HT retired             %d (%.1f per 100 MT insts)\n",
			p.HTRetired, float64(p.HTRetired)/float64(res.Retired)*100)
		fmt.Printf("  HT iterations/visits   %d / %d\n", p.HTIterations, p.HTVisits)
		fmt.Printf("  queue untimely         %d\n", p.QueueUntimely)
		fmt.Printf("  spec cache hits/evicts %d / %d\n", p.SpecCacheHits, p.SpecCacheEvicts)
		for c := core.Category(0); c < core.NumCategories; c++ {
			if n := p.Categories[c]; n > 0 {
				fmt.Printf("  residual [%s] %d\n", c, n)
			}
		}
		for loop, why := range p.RejectedLoops {
			fmt.Printf("  rejected loop %#x: %s\n", loop, why)
		}
	}
}

// runJSON is the -json output schema: the run summary, the full registry
// snapshot, and (with -interval) the interval time series.
type runJSON struct {
	Workload     string             `json:"workload"`
	Mode         string             `json:"mode"`
	Predictor    string             `json:"predictor"`
	Epoch        uint64             `json:"epoch"`
	Instructions uint64             `json:"instructions"`
	Cycles       uint64             `json:"cycles"`
	IPC          float64            `json:"ipc"`
	MPKI         float64            `json:"mpki"`
	CondBranches uint64             `json:"cond_branches"`
	Mispredicts  uint64             `json:"mispredicts"`
	QueuePreds   uint64             `json:"queue_preds,omitempty"`
	QueueMisps   uint64             `json:"queue_misps,omitempty"`
	Halted       bool               `json:"halted"`
	TimedOut     bool               `json:"timed_out,omitempty"`
	LivelockErr  string             `json:"livelock_error,omitempty"`
	Verified     bool               `json:"verified"`
	VerifyErr    string             `json:"verify_error,omitempty"`
	Sampled      *sim.SampleReport  `json:"sampled,omitempty"`
	Counters     map[string]uint64  `json:"counters,omitempty"`
	Gauges       map[string]float64 `json:"gauges,omitempty"`
	Samples      []obs.Sample       `json:"samples,omitempty"`
}

func emitJSON(workload, mode, pred string, epoch uint64, res *sim.Result, runErr error, coll *obs.Collector) {
	out := runJSON{
		Workload:     workload,
		Mode:         mode,
		Predictor:    pred,
		Epoch:        epoch,
		Instructions: res.Retired,
		Cycles:       res.Cycles,
		IPC:          res.IPC(),
		MPKI:         res.MPKI(),
		CondBranches: res.CondBranches,
		Mispredicts:  res.Mispredicts,
		QueuePreds:   res.QueuePreds,
		QueueMisps:   res.QueueMisps,
		Halted:       res.Halted,
		TimedOut:     res.TimedOut,
		Verified:     res.Halted && !errors.Is(runErr, sim.ErrVerify),
		Sampled:      res.Sampled,
	}
	if coll != nil {
		snap := coll.Registry.Snapshot()
		out.Counters = snap.Counters
		out.Gauges = snap.Gauges
		out.Samples = coll.Series()
	}
	if errors.Is(runErr, sim.ErrLivelock) {
		out.LivelockErr = runErr.Error()
	}
	if errors.Is(runErr, sim.ErrVerify) {
		out.VerifyErr = runErr.Error()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "json: %v\n", err)
		os.Exit(1)
	}
}
