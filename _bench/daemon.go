package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"greensprint/internal/atomicfile"
	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/config"
	"greensprint/internal/core"
	"greensprint/internal/httpapi"
	"greensprint/internal/obs"
	"greensprint/internal/profile"
	"greensprint/internal/server"
	"greensprint/internal/solar"
	"greensprint/internal/trace"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

const (
	// daemonSetups is how many times a daemon workload sets up before
	// its timed loop; setup_s is their median.
	daemonSetups = 15
	// roundEpochs is the live epochs of one daemon-live round. Every
	// round runs a fresh controller over the same epochs
	// 0..roundEpochs-1 and ends with the same checkpoint, which is the
	// one daemon-catchup resumes from, so every round does the same work
	// however many rounds a run makes.
	roundEpochs = 200
	// catchupBlock is the epochs one daemon-catchup round replays
	// through StepN.
	catchupBlock = 8192
	// supplyDays is the length of the supply trace: long enough to
	// cover the live epochs and the catch-up without repeating.
	supplyDays = 30
	// digestEpochs is the live prefix the run's digest covers.
	digestEpochs = 100
)

// daemonInputs is one set-up of daemon-control: greensprintd's default
// configuration (SPECjbb on the paper's RE-Batt rack, Hybrid, 5-minute
// epochs, a 30-minute Int=12 burst, Med availability) under
// -chaos-profile heavy, and the telemetry model the closed loop is fed
// from.
type daemonInputs struct {
	p       workload.Profile
	green   cluster.GreenConfig
	epoch   time.Duration
	burst   time.Duration
	offered float64 // the burst's offered rate per server
	tab     *profile.Table
	kernel  *workload.Kernel
	supply  *trace.Trace
	sched   *chaos.Schedule
	memo    map[telKey]core.Telemetry
}

type telKey struct {
	c    server.Config
	rate float64
}

// setupDaemon builds the daemon's inputs as greensprintd does from its
// default configuration. The supply trace comes from the same
// synthesizer, level, step and peak as greensprintd's tick loop, made
// with the run's seed; greensprintd synthesizes only the burst plus an
// hour and holds the last sample after that, so the trace here spans
// supplyDays instead and keeps varying over every epoch the run steps.
// The heavy chaos timeline is resolved over greensprintd's window (the
// burst plus an hour) with greensprintd's default -chaos-seed.
func (r *run) setupDaemon() (*daemonInputs, error) {
	ln := r.main
	cfg := config.Default()
	in := &daemonInputs{epoch: cfg.Epoch.Std(), burst: cfg.BurstDuration.Std(), memo: map[telKey]core.Telemetry{}}
	var err error
	if in.p, err = cfg.WorkloadProfile(); err != nil {
		return nil, err
	}
	if in.green, err = cfg.GreenConfig(); err != nil {
		return nil, err
	}
	level, err := cfg.AvailabilityLevel()
	if err != nil {
		return nil, err
	}
	ln.begin("profile.build")
	in.tab, err = profile.Build(in.p, profile.DefaultLevels)
	ln.end()
	if err != nil {
		return nil, err
	}
	in.kernel = workload.SharedKernel(in.p)
	in.offered = in.p.IntensityRate(cfg.BurstIntensity)
	ln.begin("solar.synthesize")
	in.supply = solar.Synthesize(level, supplyDays*24*time.Hour, time.Minute, float64(in.green.PeakGreen()), r.seed)
	ln.end()
	window := in.burst + time.Hour
	epochs := int((window + in.epoch - 1) / in.epoch)
	ln.begin("chaos.resolve")
	prof, err := chaos.ParseProfile("heavy")
	if err == nil {
		var bank interface{ Size() int }
		if bank, err = in.green.NewBank(); err == nil {
			in.sched, err = prof.Resolve(daemonChaosSeed, epochs, in.green.GreenServers, bank.Size())
		}
	}
	ln.end()
	if err != nil {
		return nil, err
	}
	in.sched.Source = "heavy"
	r.tr.add("chaos.faults", float64(len(in.sched.Faults)))
	return in, nil
}

// daemonChaosSeed is greensprintd's default -chaos-seed. It resolves
// the same heavy timeline on every run (crashes, two zone outages,
// solar dropouts and a battery degradation at epoch 16). Resolved with
// the run's seed, the number of battery degradations would vary from
// none to two, and each one makes every later controller step dearer.
const daemonChaosSeed = 1

// telemetry is what the Monitor measures over epoch i when the servers
// ran config c, on greensprintd's offered-rate schedule: the burst's
// rate while the burst lasts, then 0.6 of it. Green production comes
// from the supply trace; goodput, latency and server power come from
// the workload kernel at that rate, in place of greensprintd's load
// generator.
func (in *daemonInputs) telemetry(i int, c server.Config) core.Telemetry {
	if !c.Valid() {
		c = server.Normal() // before the first decision
	}
	rate := in.offered
	if time.Duration(i)*in.epoch >= in.burst {
		rate = 0.6 * in.offered
	}
	k := telKey{c, rate}
	tel, ok := in.memo[k]
	if !ok {
		tel = core.Telemetry{
			OfferedRate: rate,
			Goodput:     in.kernel.Goodput(c, rate),
			Latency:     in.kernel.EffectiveLatency(c, rate),
			ServerPower: in.kernel.LoadPower(c, rate),
		}
		in.memo[k] = tel
	}
	perEpoch := int(in.epoch / in.supply.Step)
	tel.GreenPower = units.Watt(in.supply.Samples[(i*perEpoch)%in.supply.Len()])
	return tel
}

// controller builds a controller with a fresh chaos injector whose
// events go to a Collector and a JSONL file, as greensprintd wires
// them.
func (r *run) controller(ln *lane, in *daemonInputs, eventsPath string, st *streamCheck) (*core.Controller, *obs.Collector, *os.File, error) {
	inj, err := chaos.NewInjector(in.sched)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := os.Create(eventsPath)
	if err != nil {
		return nil, nil, nil, err
	}
	coll := obs.NewCollector()
	ln.begin("core.new")
	ctrl, err := core.New(core.Options{
		Workload:     in.p,
		Green:        in.green,
		StrategyName: "Hybrid",
		Epoch:        in.epoch,
		Table:        in.tab,
		Sink:         r.eventSinks(coll, f, st),
		Chaos:        inj,
	})
	ln.end()
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return ctrl, coll, f, nil
}

// daemonLive closes the control loop over HTTP in rounds. Each round
// starts a fresh controller, outside the timed region, and runs epochs
// 0..roundEpochs-1: each POSTs the telemetry to /step, persists the
// controller checkpoint as greensprintd -checkpoint does and scrapes
// /metrics. ops_per_s is live epochs per second over a typical round
// (roundTimes.rate), each epoch one step.
func daemonLive(r *run) error {
	d := &daemonLoop{r: r, ckpt: filepath.Join(r.dir, "controller.ckpt"), events: filepath.Join(r.dir, "events.jsonl")}
	for i := 0; i < daemonSetups; i++ {
		if d.f != nil {
			d.f.Close()
		}
		if err := r.setup(d.setup); err != nil {
			return err
		}
	}
	defer func() { d.f.Close() }()

	var (
		endCkpt    []byte // the checkpoint round 0 ended with
		rt         roundTimes
		rounds     int
		prefixCkpt []byte
		prefixSum  string
	)
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < r.seconds; round++ {
		if round > 0 {
			d.f.Close()
			if err := d.start(quiet); err != nil {
				return err
			}
		}
		var b []byte
		for k := 0; k < roundEpochs; k++ {
			err := rt.time(k, func() error {
				var err error
				b, err = d.epoch(k)
				return err
			})
			if err != nil {
				r.problem("round %d epoch %d: %v", round, k, err)
				break
			}
			if round == 0 && k+1 == digestEpochs {
				prefixCkpt = b
				if prefixSum, err = fileDigest(d.events); err != nil {
					return err
				}
			}
		}
		if len(r.problems) > 0 {
			break
		}
		rounds++
		r.liveHeap(d.ctrl, d.api)
		if round == 0 {
			endCkpt = b
		} else if !bytes.Equal(b, endCkpt) {
			r.problem("round %d ended with other checkpoint bytes than round 0", round)
		}
		r.check(fmt.Sprintf("round %d scrape", round), checkScrape(d.page, roundEpochs))
		r.check(fmt.Sprintf("round %d live stream", round), checkEpochs(d.st, roundEpochs))
		r.check(fmt.Sprintf("round %d live chaos", round), checkChaos(d.st.chaos, d.in.sched, roundEpochs))
		if fi, err := d.f.Stat(); err == nil {
			r.tr.add("obs.jsonl_bytes", float64(fi.Size()))
		}
	}
	if rounds > 0 {
		r.e2e["ops_per_s"] = metric{rt.rate(roundEpochs), "1/s"}
	}
	var lat []time.Duration
	for _, s := range rt.steps {
		lat = append(lat, s...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Printf("epoch ms p50 %.6g, p99 %.6g over %d live epochs; checkpoint at epoch %d %.6g KiB\n",
		ms(percentile(lat, 0.50)), ms(percentile(lat, 0.99)), len(lat), roundEpochs, float64(len(endCkpt))/1024)
	r.digest = append(r.digest,
		fmt.Sprintf("checkpoint@%d %x", digestEpochs, sha256.Sum256(prefixCkpt)),
		fmt.Sprintf("events@%d %s", digestEpochs, prefixSum),
		fmt.Sprintf("checkpoint@%d %x", roundEpochs, sha256.Sum256(endCkpt)))
	return nil
}

// daemonCatchup resumes a controller from the checkpoint a daemon-live
// round ends with (epoch roundEpochs) and catches up catchupBlock
// epochs through Controller.StepN, the greensprintd -catchup path, in
// rounds. Every round resumes from the same bytes. ops_per_s is
// caught-up epochs per second, the median over rounds.
func daemonCatchup(r *run) error {
	path := filepath.Join(r.dir, "controller.ckpt")
	var (
		in     *daemonInputs
		resume []byte
	)
	for i := 0; i < daemonSetups; i++ {
		err := r.setup(func() error {
			var err error
			if in, err = r.setupDaemon(); err != nil {
				return err
			}
			if resume, err = r.resumePoint(in); err != nil {
				return err
			}
			return atomicfile.WriteFile(path, resume, 0o644)
		})
		if err != nil {
			return err
		}
	}
	var (
		first []core.Decision
		rt    roundTimes
	)
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < r.seconds; round++ {
		ds, took, err := r.catchUp(in, path)
		if err != nil {
			r.problem("round %d catch-up: %v", round, err)
			break
		}
		rt.add(0, took)
		if round == 0 {
			first = ds
		} else {
			r.check(fmt.Sprintf("round %d catch-up vs round 0", round), checkDecisions(ds, first))
		}
	}
	if first == nil {
		return nil
	}
	r.e2e["ops_per_s"] = metric{rt.rate(catchupBlock), "1/s"}
	want, err := r.referenceCatchup(in, resume)
	if err != nil {
		return err
	}
	r.check("catch-up vs one Step at a time", checkDecisions(first, want))
	h := sha256.New()
	for _, dec := range first {
		fmt.Fprintf(h, "%+v\n", dec)
	}
	r.digest = append(r.digest,
		fmt.Sprintf("checkpoint@%d %x", roundEpochs, sha256.Sum256(resume)),
		fmt.Sprintf("catch-up@%d %x", roundEpochs, h.Sum(nil)))
	return nil
}

// resumePoint steps a controller without sinks through the live epochs
// of a daemon-live round, one Step each with the same telemetry, and
// returns its checkpoint as greensprintd -checkpoint writes it. The
// Step and the checkpoint are the ones /step and saveCheckpoint call,
// so these are the bytes a daemon-live round ends with (both runs print
// them in their digest).
func (r *run) resumePoint(in *daemonInputs) ([]byte, error) {
	r.main.begin("core.new")
	ctrl, err := plainController(in)
	r.main.end()
	if err != nil {
		return nil, err
	}
	var last core.Decision
	for k := 0; k < roundEpochs; k++ {
		if last, err = ctrl.Step(in.telemetry(k, last.Config)); err != nil {
			return nil, err
		}
	}
	cp, err := ctrl.Checkpoint()
	if err != nil {
		return nil, err
	}
	return json.Marshal(cp)
}

// daemonLoop is the live side of daemon-control: one controller served
// through httpapi's handler, and what its epochs have measured.
type daemonLoop struct {
	r      *run
	ckpt   string
	events string

	in   *daemonInputs
	ctrl *core.Controller
	api  http.Handler
	f    *os.File
	st   *streamCheck

	last core.Decision
	page []byte // the last /metrics page
}

// setup builds the inputs, the controller and its API afresh.
func (d *daemonLoop) setup() error {
	var err error
	if d.in, err = d.r.setupDaemon(); err != nil {
		return err
	}
	return d.start(d.r.main)
}

// start builds a fresh controller and its API over the inputs, with a
// new event file.
func (d *daemonLoop) start(ln *lane) error {
	d.st, d.last, d.page = &streamCheck{}, core.Decision{}, nil
	ctrl, coll, f, err := d.r.controller(ln, d.in, d.events, d.st)
	if err != nil {
		return err
	}
	d.ctrl, d.f = ctrl, f
	d.api = httpapi.New(d.ctrl, httpapi.WithMetrics(coll))
	return nil
}

// epoch runs live epoch i and returns the checkpoint it persisted.
func (d *daemonLoop) epoch(i int) ([]byte, error) {
	r, ln := d.r, d.r.main
	body, err := json.Marshal(d.in.telemetry(i, d.last.Config))
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	ln.begin("httpapi.step")
	d.api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/step", bytes.NewReader(body)))
	ln.end()
	r.tr.add("httpapi.steps", 1)
	dec, err := checkStep(rec.Code, rec.Body.Bytes())
	if r.ops.do("step_posts", err) != nil {
		return nil, err
	}
	d.last = dec

	// greensprintd's saveCheckpoint: snapshot, JSON, atomic write.
	ln.begin("core.checkpoint")
	cp, err := d.ctrl.Checkpoint()
	ln.end()
	var b []byte
	if err == nil {
		ln.begin("core.encode")
		b, err = json.Marshal(cp)
		ln.end()
	}
	if err == nil {
		ln.begin("atomicfile.write")
		err = atomicfile.WriteFile(d.ckpt, b, 0o644)
		ln.end()
		r.tr.add("atomicfile.bytes", float64(len(b)))
	}
	if r.ops.do("checkpoint_writes", err) != nil {
		return nil, err
	}

	rec = httptest.NewRecorder()
	ln.begin("httpapi.metrics")
	d.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	ln.end()
	r.tr.add("httpapi.metrics_bytes", float64(rec.Body.Len()))
	if rec.Code != http.StatusOK {
		err = fmt.Errorf("GET /metrics answered %d", rec.Code)
	}
	if r.ops.do("metrics_scrapes", err) != nil {
		return nil, err
	}
	d.page = rec.Body.Bytes()
	return b, nil
}

// catchUp resumes a fresh controller from the checkpoint file and
// replays catchupBlock epochs through StepN. The time runs from reading
// the file to the last epoch caught up.
func (r *run) catchUp(in *daemonInputs, path string) ([]core.Decision, time.Duration, error) {
	ln := r.main
	fresh, _, f, err := r.controller(quiet, in, filepath.Join(r.dir, "catchup.jsonl"), &streamCheck{})
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	began := cpuNow()
	b, err := os.ReadFile(path)
	if r.ops.do("checkpoint_reads", err) != nil {
		return nil, 0, err
	}
	ln.begin("core.decode")
	cp, err := core.DecodeCheckpoint(b)
	ln.end()
	if err == nil {
		ln.begin("core.restore")
		err = fresh.Restore(cp)
		ln.end()
	}
	if r.ops.do("restores", err) != nil {
		return nil, 0, err
	}
	ln.begin("core.stepn")
	ds, err := fresh.StepN(catchupBlock, func(i int, last core.Decision) (core.Telemetry, bool) {
		return in.telemetry(i, last.Config), true
	})
	ln.end()
	took := cpuNow() - began
	r.liveHeap(fresh, ds)
	if fi, serr := f.Stat(); serr == nil {
		r.tr.add("obs.jsonl_bytes", float64(fi.Size()))
	}
	failed := catchupBlock - len(ds)
	if err != nil && failed == 0 {
		failed = 1 // a sink error: the epochs ran but an event was lost
	}
	r.ops.count("catchup_epochs", catchupBlock, failed)
	return ds, took, err
}

// plainController builds a controller without sinks, with a fresh
// chaos injector, over the daemon's inputs.
func plainController(in *daemonInputs) (*core.Controller, error) {
	inj, err := chaos.NewInjector(in.sched)
	if err != nil {
		return nil, err
	}
	return core.New(core.Options{
		Workload: in.p, Green: in.green, StrategyName: "Hybrid", Epoch: in.epoch, Table: in.tab, Chaos: inj,
	})
}

// referenceCatchup restores the checkpoint into a controller without
// sinks and steps the same telemetry one Step at a time.
func (r *run) referenceCatchup(in *daemonInputs, ckpt []byte) ([]core.Decision, error) {
	ctrl, err := plainController(in)
	if err != nil {
		return nil, err
	}
	cp, err := core.DecodeCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	if err := ctrl.Restore(cp); err != nil {
		return nil, err
	}
	out := make([]core.Decision, 0, catchupBlock)
	last := cp.Last
	for k := 0; k < catchupBlock; k++ {
		d, err := ctrl.Step(in.telemetry(cp.Count+k, last.Config))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		last = d
	}
	return out, nil
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
