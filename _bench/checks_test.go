package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/core"
	"greensprint/internal/obs"
	"greensprint/internal/profile"
	"greensprint/internal/server"
	"greensprint/internal/sim"
	"greensprint/internal/solar"
	"greensprint/internal/strategy"
	"greensprint/internal/units"
	"greensprint/internal/workload"
)

// Each test feeds a check a real output first, which must pass, and
// then perturbed copies of it, each of which must fail.

func TestCheckHeadline(t *testing.T) {
	good := map[string]float64{"SPECjbb": 4.81, "Web-Search": 4.1, "Memcached": 4.69}
	if err := checkHeadline(good); err != nil {
		t.Fatalf("paper values rejected: %v", err)
	}
	for name, bad := range map[string]map[string]float64{
		"6% high":  {"SPECjbb": 4.8 * 1.06, "Web-Search": 4.1, "Memcached": 4.7},
		"6% low":   {"SPECjbb": 4.8, "Web-Search": 4.1 * 0.94, "Memcached": 4.7},
		"missing":  {"SPECjbb": 4.8, "Web-Search": 4.1},
		"not a 4x": {"SPECjbb": 1, "Web-Search": 4.1, "Memcached": 4.7},
	} {
		if checkHeadline(bad) == nil {
			t.Errorf("%s: accepted %v", name, bad)
		}
	}
}

// flatRun runs one paper cell and returns its result with the inputs.
func flatRun(t *testing.T, green cluster.GreenConfig, sink obs.Sink, sched *chaos.Schedule) (*sim.Result, sim.Config) {
	t.Helper()
	p := workload.SPECjbb()
	tab, err := profile.BuildCached(p, profile.DefaultLevels)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := strategy.ByName("Hybrid", p, tab)
	if err != nil {
		t.Fatal(err)
	}
	d := 2 * time.Hour
	cfg := sim.Config{
		Workload: p,
		Green:    green,
		Strategy: strat,
		Table:    tab,
		Burst:    workload.Burst{Intensity: 12, Duration: d},
		Supply:   solar.Synthesize(solar.Med, 4*time.Hour, time.Minute, float64(green.PeakGreen()), 3),
		Lead:     time.Hour,
		Tail:     time.Hour,
		Sink:     sink,
		Chaos:    sched,
	}
	eng, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StepN(eng.TotalEpochs()); err != nil {
		t.Fatal(err)
	}
	return eng.Result(), cfg
}

func cloneResult(r *sim.Result) *sim.Result {
	c := *r
	c.Records = append([]sim.EpochRecord(nil), r.Records...)
	return &c
}

func TestCheckEnergy(t *testing.T) {
	green := cluster.RESBatt()
	res, cfg := flatRun(t, green, nil, nil)
	if err := checkEnergy(res, cfg.Supply, green); err != nil {
		t.Fatalf("real run rejected: %v", err)
	}
	perturb := map[string]func(*sim.Result){
		"negative grid":        func(r *sim.Result) { r.Account.Grid = -1 },
		"green beyond supply":  func(r *sim.Result) { r.Account.Green += 2 * 1e3 * 4 },
		"battery beyond store": func(r *sim.Result) { r.Account.Battery += 1e6 },
		"SoC below the floor":  func(r *sim.Result) { r.Records[3].SoC = 0.2 },
		"SoC above one":        func(r *sim.Result) { r.Records[3].SoC = 1.01 },
	}
	for name, fn := range perturb {
		bad := cloneResult(res)
		fn(bad)
		if checkEnergy(bad, cfg.Supply, green) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSameResult(t *testing.T) {
	res, cfg := flatRun(t, cluster.REBatt(), nil, nil)
	cfg.Strategy, _ = strategy.ByName("Hybrid", cfg.Workload, cfg.Table)
	again, err := sim.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameResult(again, res); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	perturb := map[string]func(*sim.Result){
		"one ulp of power": func(r *sim.Result) {
			r.Records[30].Battery = units.Watt(math.Nextafter(float64(r.Records[30].Battery), math.Inf(1)))
		},
		"record dropped": func(r *sim.Result) { r.Records = r.Records[:len(r.Records)-1] },
		"config changed": func(r *sim.Result) { r.Records[30].Config = server.Config{Cores: 99} },
		"mean perf":      func(r *sim.Result) { r.MeanNormPerf = math.Nextafter(r.MeanNormPerf, 0) },
		"account":        func(r *sim.Result) { r.Account.GridCharged++ },
		"cycles":         func(r *sim.Result) { r.BatteryCycles *= 2 },
	}
	for name, fn := range perturb {
		bad := cloneResult(again)
		fn(bad)
		if checkSameResult(bad, res) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// chaosRun runs a flat cell under a fault-heavy chaos timeline through the
// benchmark's stream sink.
func chaosRun(t *testing.T) (*streamCheck, *sim.Result, *chaos.Schedule, int) {
	t.Helper()
	green := cluster.REBatt()
	prof, err := chaos.ParseProfile("crash=6,solar=4,degrade=2,stuck=2")
	if err != nil {
		t.Fatal(err)
	}
	bank, err := green.NewBank()
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 48 // 4 hours of 5-minute epochs
	sched, err := prof.Resolve(5, epochs, green.GreenServers, bank.Size())
	if err != nil {
		t.Fatal(err)
	}
	st := &streamCheck{}
	tr := newTracer(false)
	sink := streamSink{next: obs.NewCollector(), st: st, tr: tr}
	res, _ := flatRun(t, green, sink, sched)
	if len(res.Records) != epochs {
		t.Fatalf("%d records, want %d", len(res.Records), epochs)
	}
	if len(sched.Faults) == 0 {
		t.Fatal("schedule has no faults; the chaos check would test nothing")
	}
	return st, res, sched, epochs
}

func TestStreamChecks(t *testing.T) {
	st, res, sched, total := chaosRun(t)
	if err := checkAccount(st, res.Account); err != nil {
		t.Errorf("real stream's energy rejected: %v", err)
	}
	if err := checkEpochs(st, total); err != nil {
		t.Errorf("real stream's numbering rejected: %v", err)
	}
	if err := checkChaos(st.chaos, sched, total); err != nil {
		t.Errorf("real stream's chaos rejected: %v", err)
	}

	energy := *st
	energy.gridWh *= 1 + 1e-6
	if checkAccount(&energy, res.Account) == nil {
		t.Error("grid energy off by 1e-6 accepted")
	}
	energy = *st
	energy.battWh = 0
	if res.Account.Battery > 0 && checkAccount(&energy, res.Account) == nil {
		t.Error("missing battery energy accepted")
	}

	// Replay the epoch numbering with one epoch missing, one repeated,
	// two swapped, and one repeated in place of the next.
	seq := make([]int, total)
	for i := range seq {
		seq[i] = i
	}
	cat := func(parts ...[]int) []int {
		var out []int
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for name, nums := range map[string][]int{
		"gap":             cat(seq[:20], seq[21:]),
		"repeated":        cat(seq[:21], []int{20}, seq[21:]),
		"swapped":         cat(seq[:20], []int{21, 20}, seq[22:]),
		"repeat for next": cat(seq[:21], []int{20}, seq[22:]),
	} {
		var s streamCheck
		for _, n := range nums {
			s.observe(obs.Event{Epoch: n})
		}
		if checkEpochs(&s, total) == nil {
			t.Errorf("%s epoch accepted", name)
		}
	}
	short := streamCheck{next: total - 1, epochs: total - 1}
	if checkEpochs(&short, total) == nil {
		t.Error("stream one epoch short accepted")
	}

	dropped := st.chaos[1:]
	if checkChaos(dropped, sched, total) == nil {
		t.Error("dropped chaos event accepted")
	}
	moved := append([]chaosEvent(nil), st.chaos...)
	moved[0].Epoch++
	if checkChaos(moved, sched, total) == nil {
		t.Error("chaos event at the wrong epoch accepted")
	}
	retargeted := append([]chaosEvent(nil), st.chaos...)
	retargeted[0].Target += 7
	retargeted[0].Mode = "zone-outage"
	if checkChaos(retargeted, sched, total) == nil {
		t.Error("chaos event with the wrong target accepted")
	}
	if checkChaos(append(append([]chaosEvent(nil), st.chaos...), st.chaos[0]), sched, total) == nil {
		t.Error("duplicated chaos event accepted")
	}
}

func TestCheckStep(t *testing.T) {
	d := core.Decision{Epoch: 3, Config: server.Normal()}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkStep(http.StatusOK, b)
	if err != nil || got != d {
		t.Fatalf("valid answer rejected: %v (%+v)", err, got)
	}
	if _, err := checkStep(http.StatusInternalServerError, []byte(`{"error":"x"}`)); err == nil {
		t.Error("500 accepted")
	}
	if _, err := checkStep(http.StatusOK, b[:len(b)/2]); err == nil {
		t.Error("truncated body accepted")
	}
	bad := d
	bad.Config.Cores = 0
	b, _ = json.Marshal(bad)
	if _, err := checkStep(http.StatusOK, b); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCheckScrape(t *testing.T) {
	coll := obs.NewCollector()
	for e := 0; e < 7; e++ {
		coll.Observe(obs.Event{Epoch: e, EpochSeconds: 300, Strategy: "Hybrid", Config: "6c@1.2GHz", Case: "grid"})
	}
	coll.Observe(obs.Event{Epoch: 7, Chaos: "fault", ChaosMode: "server-crash"})
	var page bytes.Buffer
	if err := coll.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if err := checkScrape(page.Bytes(), 7); err != nil {
		t.Fatalf("real page rejected: %v", err)
	}
	for _, stepped := range []int{6, 8} {
		if checkScrape(page.Bytes(), stepped) == nil {
			t.Errorf("page counting 7 epochs accepted for %d stepped", stepped)
		}
	}
	cut := bytes.ReplaceAll(page.Bytes(), []byte("greensprint_epochs_total 7"), nil)
	if checkScrape(cut, 7) == nil {
		t.Error("page without the epoch counter accepted")
	}
}

func TestCheckDecisions(t *testing.T) {
	ds := []core.Decision{{Epoch: 0, Config: server.Normal()}, {Epoch: 1, Config: server.Normal(), Budget: 42}}
	if err := checkDecisions(ds, append([]core.Decision(nil), ds...)); err != nil {
		t.Fatalf("identical logs rejected: %v", err)
	}
	bad := append([]core.Decision(nil), ds...)
	bad[1].Budget = 42.000001
	if checkDecisions(bad, ds) == nil {
		t.Error("different budget accepted")
	}
	if checkDecisions(ds[:1], ds) == nil {
		t.Error("short log accepted")
	}
}
