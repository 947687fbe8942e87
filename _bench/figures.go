package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"greensprint/internal/cluster"
	"greensprint/internal/profile"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/sweep"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

// figureSetups is how many times paper-figures sets up; setup_s is
// their median.
const figureSetups = 15

// cell is one paper-figure cell, as internal/experiments builds it.
type cell struct {
	fig       string
	p         workload.Profile
	green     cluster.GreenConfig
	strategy  string
	level     solar.Availability
	d         time.Duration
	intensity int
}

func (c cell) String() string {
	return fmt.Sprintf("%s %s/%s/%s/%v/%v/Int=%d", c.fig, c.p.Name, c.green.Name, c.strategy, c.level, c.d, c.intensity)
}

// figureCells lists one pass of the paper's evaluation grid in the
// order internal/experiments runs it: Figures 6-9 (durations x
// availability x variant), 10a (durations x intensities), 10b (the
// strategies at Int=9, Min, 10 minutes) and the three headline cells.
func figureCells() []cell {
	strats := []string{"Greedy", "Parallel", "Pacing", "Hybrid"}
	var out []cell
	grid := func(fig string, p workload.Profile, greens []cluster.GreenConfig, names []string) {
		for _, d := range workload.Durations() {
			for _, level := range solar.Levels() {
				for _, g := range greens {
					for _, s := range names {
						out = append(out, cell{fig, p, g, s, level, d, 12})
					}
				}
			}
		}
	}
	grid("Fig6", workload.SPECjbb(), []cluster.GreenConfig{cluster.REBatt()}, strats)
	grid("Fig7", workload.SPECjbb(), cluster.TableI(), []string{"Hybrid"})
	grid("Fig8", workload.WebSearch(), []cluster.GreenConfig{cluster.RESBatt()}, strats)
	grid("Fig9", workload.Memcached(), []cluster.GreenConfig{cluster.RESBatt()}, strats)
	for _, d := range workload.Durations() {
		for _, in := range []int{12, 10, 9, 7} {
			out = append(out, cell{"Fig10a", workload.SPECjbb(), cluster.RESBatt(), "Hybrid", solar.Med, d, in})
		}
	}
	for _, s := range strats {
		out = append(out, cell{"Fig10b", workload.SPECjbb(), cluster.RESBatt(), s, solar.Min, 10 * time.Minute, 9})
	}
	for _, p := range workload.All() {
		out = append(out, cell{"Headline", p, cluster.REBatt(), "Hybrid", solar.Max, 30 * time.Minute, 12})
	}
	return out
}

// cellOut is one cell's outcome.
type cellOut struct {
	res    *sim.Result
	supply *trace.Trace
	err    error
}

// config builds the engine config of one cell: a fresh strategy and a
// supply window synthesized under seed, exactly as
// experiments.runCellSeeded does.
func (c cell) config(ln *lane, tab *profile.Table, seed int64) (sim.Config, error) {
	ln.begin("strategy.new")
	strat, err := strategy.ByName(c.strategy, c.p, tab)
	ln.end()
	if err != nil {
		return sim.Config{}, err
	}
	ln.begin("solar.synthesize")
	supply := solar.Synthesize(c.level, c.d, time.Minute, float64(c.green.PeakGreen()), seed)
	ln.end()
	return sim.Config{
		Workload: c.p,
		Green:    c.green,
		Strategy: strat,
		Table:    tab,
		Burst:    workload.Burst{Intensity: c.intensity, Duration: c.d},
		Supply:   supply,
	}, nil
}

// runCell runs one cell to its end.
func (r *run) runCell(ln *lane, c cell, tab *profile.Table, seed int64) cellOut {
	cfg, err := c.config(ln, tab, seed)
	if err != nil {
		return cellOut{err: err}
	}
	ln.begin("sim.new")
	eng, err := sim.New(cfg)
	ln.end()
	r.tr.add("sim.new_calls", 1)
	if err != nil {
		return cellOut{err: err}
	}
	ln.begin("sim.stepn")
	n, err := eng.StepN(eng.TotalEpochs())
	ln.end()
	r.tr.add("sim.epochs", float64(n))
	if err != nil {
		return cellOut{err: err}
	}
	ln.begin("sim.result")
	res := eng.Result()
	ln.end()
	return cellOut{res: res, supply: cfg.Supply}
}

// paperFigures repeats the paper's 215-cell evaluation grid over
// successive supply seeds on the sweep pool at its default width.
// ops_per_s is cells per second over the median pass; each pass is
// checked between passes, outside the timed region, and only the first
// is kept.
func paperFigures(r *run) error {
	var cells []cell
	var tabs map[string]*profile.Table
	for i := 0; i < figureSetups; i++ {
		err := r.setup(func() error {
			cells = figureCells()
			tabs = map[string]*profile.Table{}
			for _, p := range workload.All() {
				r.main.begin("profile.build")
				tab, err := profile.Build(p, profile.DefaultLevels)
				r.main.end()
				if err != nil {
					return err
				}
				tabs[p.Name] = tab
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	workers := sweep.DefaultWorkers()
	var (
		first     []cellOut
		firstSeed int64
		rt        roundTimes
		shares    []float64 // each pass's CPU time over the workers, s
		walls     []float64 // each pass's wall time less steal, s
		total     time.Duration
	)
	for pass := 0; total < r.seconds; pass++ {
		seed := sweep.CellSeed(r.seed, pass)
		r.main.begin("sweep.map")
		began, cpu, steal := time.Now(), cpuNow(), stealNow()
		parent := r.main.top()
		outs, err := sweep.Map(context.Background(), cells, func(_ context.Context, _ int, c cell) (cellOut, error) {
			ln := r.tr.lane(parent)
			ln.begin("sweep.cell")
			out := r.runCell(ln, c, tabs[c.p.Name], seed)
			ln.end()
			r.tr.add("sweep.cells", 1)
			return out, nil
		})
		d := time.Since(began)
		share := (cpuNow() - cpu) / time.Duration(workers)
		wall := d - (stealNow()-steal)/time.Duration(runtime.NumCPU())
		r.tr.add("sweep.worker_s", float64(workers)*d.Seconds())
		r.main.end()
		if err != nil {
			return err
		}
		r.liveHeap(outs)
		total += d
		// Pool time: the pass's CPU time shared out over the workers,
		// or its wall time less what the hypervisor withheld if that
		// is longer, as it is when workers sit idle or blocked.
		rt.add(0, max(share, wall))
		shares = append(shares, share.Seconds())
		walls = append(walls, wall.Seconds())
		r.checkPass(pass, cells, outs)
		if pass == 0 {
			first, firstSeed = outs, seed
		}
	}
	r.e2e["ops_per_s"] = metric{rt.rate(float64(len(cells))), "1/s"}
	fmt.Printf("pass time over %d workers: median CPU share %.6g s, median wall less steal %.6g s\n",
		workers, medianOf(shares), medianOf(walls))
	r.checkSharded(cells, tabs, first, firstSeed)

	h := sha256.New()
	for _, o := range first {
		if o.err == nil {
			sum, err := hashResult(o.res)
			if err != nil {
				return err
			}
			h.Write(sum[:])
		}
	}
	r.digest = append(r.digest, fmt.Sprintf("pass0-results %x", h.Sum(nil)))
	return nil
}

// checkPass counts one pass's cells and applies the per-cell and
// headline checks to them.
func (r *run) checkPass(pass int, cells []cell, outs []cellOut) {
	failed := 0
	gains := map[string]float64{}
	for i, o := range outs {
		c := cells[i]
		if o.err != nil {
			failed++
			r.problem("pass %d %v: %v", pass, c, o.err)
			continue
		}
		r.check(fmt.Sprintf("pass %d %v", pass, c), checkEnergy(o.res, o.supply, c.green))
		if c.fig == "Headline" {
			gains[c.p.Name] = o.res.MeanNormPerf
		}
	}
	r.ops.count("cells", len(outs), failed)
	r.check(fmt.Sprintf("pass %d", pass), checkHeadline(gains))
}

// shardedSample is the fixed set of cells rerun through
// sweep.ShardedRun: one stateful Hybrid cell per figure family plus a
// stateless one, all long enough to split.
var shardedSample = []string{
	"Fig6 SPECjbb/RE-Batt/Hybrid/Med/1h0m0s/Int=12",
	"Fig7 SPECjbb/REOnly/Hybrid/Max/30m0s/Int=12",
	"Fig9 Memcached/RE-SBatt/Pacing/Med/15m0s/Int=12",
	"Fig10a SPECjbb/RE-SBatt/Hybrid/Med/1h0m0s/Int=9",
}

// checkSharded reruns the sample cells of the first pass through
// sweep.ShardedRun with several windows; each must be bit-identical to
// the pass's own result.
func (r *run) checkSharded(cells []cell, tabs map[string]*profile.Table, outs []cellOut, seed int64) {
	idx := map[string]int{}
	for i, c := range cells {
		idx[c.String()] = i
	}
	for _, name := range shardedSample {
		i, ok := idx[name]
		if !ok {
			r.problem("sharded sample cell %q not in the grid", name)
			continue
		}
		c := cells[i]
		if outs[i].err != nil {
			continue
		}
		for _, windows := range []int{2, 3, 4} {
			cfg, err := c.config(quiet, tabs[c.p.Name], seed)
			if err != nil {
				r.problem("sharded %v: %v", c, err)
				continue
			}
			res, err := sweep.ShardedRun(context.Background(), cfg, windows)
			if err != nil {
				r.problem("sharded %v windows %d: %v", c, windows, err)
				continue
			}
			r.check(fmt.Sprintf("sharded %v windows %d", c, windows), checkSameResult(res, outs[i].res))
		}
	}
}
