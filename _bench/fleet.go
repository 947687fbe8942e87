package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/fleet"
	"greensprint/internal/obs"
	"greensprint/internal/profile"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/trace"
	"greensprint/internal/workload"
)

const (
	// fleetBatch is the StepN batch greensprint-sim uses for -fleet runs.
	fleetBatch = 4096
	// fleetSetups is how many times a fleet workload sets up before its
	// first timed round; setup_s is the median over these and the
	// set-up of every later round.
	fleetSetups = 9
	year        = 365 * 24 * time.Hour
	season      = 90 * 24 * time.Hour
	burstLen    = 24 * time.Hour
)

// fleetSpec is the generated fleet both fleet workloads run: 10,000
// servers in racks of 20 over two zones, four weighted classes with
// their own sprint envelope, battery pack and panel count. The seed
// drives the template draws.
func fleetSpec(seed int64) *fleet.Spec {
	return &fleet.Spec{
		Name:         "bench-10k",
		TotalServers: 10_000,
		RackSize:     20,
		Zones:        2,
		Seed:         seed,
		Templates: []fleet.Template{
			{Name: "std", Weight: 4, BatteryAh: 10, Panels: 3},
			{Name: "dense", Weight: 2, PeakPower: 170, BatteryAh: 3.2, Panels: 3},
			{Name: "lean", Weight: 1, PeakPower: 140, Panels: 2},
			{Name: "edge", Weight: 1, PeakPower: 160, BatteryAh: 20, Panels: 4, Zone: 2},
		},
	}
}

// fleetRun is one set-up of a fleet workload: the generated topology,
// the supply, the resolved chaos timeline and a fresh engine.
type fleetRun struct {
	p      workload.Profile
	spec   *fleet.Spec
	tab    *profile.Table
	supply *trace.Trace
	sched  *chaos.Schedule
	lead   time.Duration
	tail   time.Duration
	total  int
	eng    *sim.Engine
}

// setupFleet builds the inputs of a fleet run over horizon, with a
// one-day burst in its middle and the named chaos profile, and an
// engine streaming to sink (nil for none), as greensprint-sim composes
// them.
func (r *run) setupFleet(horizon time.Duration, chaosProfile string, sink obs.Sink) (*fleetRun, error) {
	ln := r.main
	fr := &fleetRun{p: workload.SPECjbb(), spec: fleetSpec(r.seed)}
	fr.lead = horizon/2 - burstLen/2
	fr.tail = horizon - fr.lead - burstLen
	fr.total = int(horizon / time.Minute)

	ln.begin("fleet.generate")
	topo, err := fr.spec.Generate()
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("profile.build")
	fr.tab, err = profile.Build(fr.p, profile.DefaultLevels)
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("solar.synthesize")
	fr.supply = solar.Synthesize(solar.Med, horizon, time.Minute, float64(topo.PeakGreen()), r.seed)
	ln.end()
	ln.begin("chaos.resolve")
	prof, err := chaos.ParseProfile(chaosProfile)
	if err == nil {
		fr.sched, err = prof.ResolveFor(r.seed, fr.total, topo.ChaosTopology())
	}
	ln.end()
	if err != nil {
		return nil, err
	}
	fr.sched.Source = chaosProfile
	r.tr.add("chaos.faults", float64(len(fr.sched.Faults)))
	fr.eng, err = fr.engine(ln, sink)
	return fr, err
}

// engine builds a fresh engine, with a fresh Hybrid strategy, over the
// run's inputs.
func (fr *fleetRun) engine(ln *lane, sink obs.Sink) (*sim.Engine, error) {
	ln.begin("strategy.new")
	strat, err := strategy.ByName("Hybrid", fr.p, fr.tab)
	ln.end()
	if err != nil {
		return nil, err
	}
	ln.begin("sim.new")
	eng, err := sim.New(sim.Config{
		Workload: fr.p,
		Green:    cluster.REBatt(),
		Fleet:    fr.spec,
		Strategy: strat,
		Table:    fr.tab,
		Burst:    workload.Burst{Intensity: 12, Duration: burstLen},
		Supply:   fr.supply,
		Lead:     fr.lead,
		Tail:     fr.tail,
		Epoch:    time.Minute,
		Sink:     sink,
		Chaos:    fr.sched,
	})
	ln.end()
	ln.tr.add("sim.new_calls", 1)
	if err == nil && eng.TotalEpochs() != fr.total {
		err = fmt.Errorf("engine horizon %d epochs, want %d", eng.TotalEpochs(), fr.total)
	}
	return eng, err
}

// stepBatch runs one StepN batch of at most n epochs.
func (r *run) stepBatch(eng *sim.Engine, n int) error {
	r.main.begin("sim.stepn")
	ran, err := eng.StepN(n)
	r.main.end()
	r.tr.add("sim.epochs", float64(ran))
	if err == nil && ran == 0 {
		err = fmt.Errorf("StepN(%d) ran no epoch at %d/%d", n, eng.EpochIndex(), eng.TotalEpochs())
	}
	return r.ops.do("stepn_batches", err)
}

// eventSinks is the sink greensprint-sim and greensprintd compose, a
// Collector plus a JSONL stream on an unbuffered file, each behind a
// span wrapper and the whole behind the stream checks.
func (r *run) eventSinks(coll *obs.Collector, f *os.File, st *streamCheck) obs.Sink {
	return streamSink{
		next: obs.Multi(
			spanSink{"obs.collector_emit", coll, r.main},
			spanSink{"obs.jsonl_emit", obs.NewJSONL(f), r.main},
		),
		st: st,
		tr: r.tr,
	}
}

// yearFleetEvents replays one year of one-minute epochs on the 10,000
// server fleet under the light chaos profile, streaming every event to
// a Collector and a JSONL file. Each round sets up afresh and replays
// the same year; ops_per_s is simulated epochs per second over a
// typical round (roundTimes.rate), StepN batches and Result() included.
func yearFleetEvents(r *run) error {
	path := filepath.Join(r.dir, "events.jsonl")
	var (
		fr    *fleetRun
		f     *os.File
		st    *streamCheck
		total time.Duration
		rt    roundTimes
	)
	setup := func() error {
		return r.setup(func() error {
			var err error
			if f, err = os.Create(path); err != nil {
				return err
			}
			st = &streamCheck{}
			fr, err = r.setupFleet(year, "light", r.eventSinks(obs.NewCollector(), f, st))
			return err
		})
	}
	for i := 0; i < fleetSetups; i++ {
		if i > 0 {
			f.Close()
		}
		if err := setup(); err != nil {
			return err
		}
	}
	var firstResult [sha256.Size]byte
	for round := 0; round < minRounds || total < r.seconds; round++ {
		if round > 0 {
			if err := setup(); err != nil {
				return err
			}
		}
		start := time.Now()
		failed := false
		k := 0
		for ; !fr.eng.Done(); k++ {
			if err := rt.time(k, func() error { return r.stepBatch(fr.eng, fleetBatch) }); err != nil {
				failed = true
				break
			}
		}
		var res *sim.Result
		rt.time(k, func() error {
			r.main.begin("sim.result")
			res = fr.eng.Result()
			r.main.end()
			return nil
		})
		total += time.Since(start)
		r.liveHeap(fr.eng, res)
		if err := f.Close(); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		r.tr.add("obs.jsonl_bytes", float64(fi.Size()))
		if failed {
			break
		}
		what := fmt.Sprintf("round %d", round)
		r.check(what+" energy", checkAccount(st, res.Account))
		r.check(what+" epochs", checkEpochs(st, fr.total))
		r.check(what+" chaos", checkChaos(st.chaos, fr.sched, fr.total))
		sum, err := hashResult(res)
		if err != nil {
			return err
		}
		if round == 0 {
			firstResult = sum
			r.digest = append(r.digest, fmt.Sprintf("result %x", sum))
			events, err := fileDigest(path)
			if err != nil {
				return err
			}
			r.digest = append(r.digest, "events "+events)
		} else if sum != firstResult {
			r.problem("round %d result differs from round 0 on identical inputs", round)
		}
	}
	r.e2e["ops_per_s"] = metric{rt.rate(float64(fr.total)), "1/s"}
	return nil
}

// seasonResume runs 90 days on the fleet with chaos on, writing a
// checkpoint after every batch; halfway it stops, and a fresh engine
// reads the checkpoint back, restores it and runs to the end.
// ops_per_s is simulated epochs per second over a typical round
// (roundTimes.rate), checkpoint writes, the resume and Result()
// included.
func seasonResume(r *run) error {
	path := filepath.Join(r.dir, "season.ckpt")
	var (
		fr       *fleetRun
		total    time.Duration
		rt       roundTimes
		lastSize int64
		ref      *sim.Result
	)
	setup := func() error {
		return r.setup(func() error {
			var err error
			fr, err = r.setupFleet(season, "heavy", nil)
			return err
		})
	}
	for i := 0; i < fleetSetups; i++ {
		if err := setup(); err != nil {
			return err
		}
	}
	// The reference: the same inputs run straight through, no
	// checkpoints, no resume.
	eng, err := fr.engine(quiet, nil)
	if err != nil {
		return err
	}
	if _, err := eng.StepN(fr.total); err != nil {
		return err
	}
	ref = eng.Result()
	for round := 0; round < minRounds || total < r.seconds; round++ {
		if round > 0 {
			if err := setup(); err != nil {
				return err
			}
		}
		start := time.Now()
		res, size, err := r.seasonRound(fr, path, &rt)
		total += time.Since(start)
		if err != nil {
			break // counted as a failed operation
		}
		r.liveHeap(res)
		lastSize = size
		if round == 0 {
			sum, err := hashResult(res)
			if err != nil {
				return err
			}
			r.digest = append(r.digest, fmt.Sprintf("result %x", sum))
			last, err := fileDigest(path)
			if err != nil {
				return err
			}
			r.digest = append(r.digest, "last-checkpoint "+last)
		}
		r.check(fmt.Sprintf("round %d resumed vs straight", round), checkSameResult(res, ref))
	}
	r.e2e["ops_per_s"] = metric{rt.rate(float64(fr.total)), "1/s"}
	fmt.Printf("last checkpoint %.6g KiB\n", float64(lastSize)/1024)
	return nil
}

// seasonRound is one timed round of season-resume; its steps are the
// batches, each with the checkpoint written after it, the resume and
// Result(). It returns the resumed run's result and the size of the
// last checkpoint written.
func (r *run) seasonRound(fr *fleetRun, path string, rt *roundTimes) (*sim.Result, int64, error) {
	ln := r.main
	var size int64
	persist := func(eng *sim.Engine) error {
		ln.begin("sim.checkpoint")
		cp, err := eng.Checkpoint()
		ln.end()
		if err == nil {
			ln.begin("sim.writefile")
			err = cp.WriteFile(path)
			ln.end()
		}
		if err == nil {
			var fi os.FileInfo
			if fi, err = os.Stat(path); err == nil {
				size = fi.Size()
				r.tr.add("sim.checkpoints", 1)
				r.tr.add("sim.checkpoint_bytes", float64(size))
			}
		}
		return r.ops.do("checkpoint_writes", err)
	}
	batch := func(eng *sim.Engine, n int) error {
		if err := r.stepBatch(eng, n); err != nil {
			return err
		}
		return persist(eng)
	}
	half, k := fr.total/2, 0
	for ; fr.eng.EpochIndex() < half; k++ {
		if err := rt.time(k, func() error { return batch(fr.eng, min(fleetBatch, half-fr.eng.EpochIndex())) }); err != nil {
			return nil, 0, err
		}
	}
	var eng *sim.Engine
	err := rt.time(k, func() error {
		var err error
		if eng, err = fr.engine(ln, nil); err != nil {
			return r.ops.do("restores", err)
		}
		ln.begin("sim.readfile")
		cp, err := sim.ReadCheckpointFile(path)
		ln.end()
		if r.ops.do("checkpoint_reads", err) != nil {
			return err
		}
		ln.begin("sim.restore")
		err = eng.Restore(cp)
		ln.end()
		return r.ops.do("restores", err)
	})
	if err != nil {
		return nil, 0, err
	}
	if eng.EpochIndex() != half {
		err := fmt.Errorf("restored at epoch %d, checkpoint cut at %d", eng.EpochIndex(), half)
		r.problem("%v", err)
		return nil, 0, err
	}
	for k++; !eng.Done(); k++ {
		if err := rt.time(k, func() error { return batch(eng, fleetBatch) }); err != nil {
			return nil, 0, err
		}
	}
	var res *sim.Result
	rt.time(k, func() error {
		ln.begin("sim.result")
		res = eng.Result()
		ln.end()
		return nil
	})
	return res, size, nil
}

// fileDigest returns the SHA-256 of a file's bytes.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}
