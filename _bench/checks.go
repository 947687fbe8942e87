package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"greensprint/internal/chaos"
	"greensprint/internal/cluster"
	"greensprint/internal/core"
	"greensprint/internal/sim"
	"greensprint/internal/trace"
)

// Every check below is computed apart from the program, or from a
// property the method must have; none compares against a stored copy
// of earlier output.

// paperHeadline is the abstract's maximum gain per workload: Hybrid,
// RE-Batt, maximum availability, a 30-minute Int=12 burst.
var paperHeadline = map[string]float64{"SPECjbb": 4.8, "Web-Search": 4.1, "Memcached": 4.7}

// checkHeadline requires every headline cell within 5% of the paper.
func checkHeadline(gains map[string]float64) error {
	for _, name := range sortedKeys(paperHeadline) {
		want := paperHeadline[name]
		got, ok := gains[name]
		if !ok {
			return fmt.Errorf("headline %s missing", name)
		}
		if math.Abs(got-want)/want > 0.05 {
			return fmt.Errorf("headline %s = %.3fx, paper %.1fx (more than 5%% off)", name, got, want)
		}
	}
	return nil
}

// checkEnergy applies the energy invariants of one flat-rack run: no
// negative energy, green energy used within what the supply trace
// delivered, battery energy delivered within the bank's usable energy
// plus everything charged into it, and every record's state of charge
// within [1 - MaxDoD, 1].
func checkEnergy(res *sim.Result, supply *trace.Trace, green cluster.GreenConfig) error {
	a := res.Account
	if a.Green < 0 || a.Battery < 0 || a.Grid < 0 || a.GreenCharged < 0 || a.GridCharged < 0 {
		return fmt.Errorf("negative energy in %+v", a)
	}
	supplied := supply.Integral()
	if used := float64(a.Green + a.GreenCharged); used > supplied*1.01+1e-9 {
		return fmt.Errorf("green used %.6g Wh exceeds supplied %.6g Wh", used, supplied)
	}
	bank, err := green.NewBank()
	if err != nil {
		return err
	}
	if max := float64(bank.UsableEnergy()) + float64(a.GreenCharged+a.GridCharged); float64(a.Battery) > max+1e-6 {
		return fmt.Errorf("battery delivered %.6g Wh exceeds available %.6g Wh", float64(a.Battery), max)
	}
	floor := 1 - bank.MaxDoD()
	for i, rec := range res.Records {
		if rec.SoC < floor-1e-9 || rec.SoC > 1+1e-9 || math.IsNaN(rec.SoC) {
			return fmt.Errorf("epoch %d: SoC %.6g outside [%.3g, 1]", i, rec.SoC, floor)
		}
	}
	return nil
}

// aggregates is everything a Result carries apart from its records and
// the knob-herd pointers.
type aggregates struct {
	MeanNormPerf  float64
	Account       cluster.EnergyAccount
	BatteryCycles float64
	ClassEnergyWh []float64
}

// forEachPart calls fn with the JSON of each record of r in order and
// then with the JSON of its aggregates. JSON floats round-trip exactly,
// so two results give equal parts exactly when they are bit-identical;
// encoding part by part keeps a year of records from being held as one
// buffer.
func forEachPart(r *sim.Result, fn func(i int, b []byte) error) error {
	for i := range r.Records {
		b, err := json.Marshal(&r.Records[i])
		if err != nil {
			return err
		}
		if err := fn(i, b); err != nil {
			return err
		}
	}
	b, err := json.Marshal(aggregates{r.MeanNormPerf, r.Account, r.BatteryCycles, r.ClassEnergyWh})
	if err != nil {
		return err
	}
	return fn(len(r.Records), b)
}

// hashResult returns the SHA-256 of a result's parts.
func hashResult(r *sim.Result) ([sha256.Size]byte, error) {
	h := sha256.New()
	err := forEachPart(r, func(_ int, b []byte) error {
		h.Write(b)
		return nil
	})
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, err
}

// checkSameResult requires two results to be bit-identical, record for
// record.
func checkSameResult(got, want *sim.Result) error {
	if len(got.Records) != len(want.Records) {
		return fmt.Errorf("%d records, want %d", len(got.Records), len(want.Records))
	}
	var parts [][]byte
	if err := forEachPart(want, func(_ int, b []byte) error {
		parts = append(parts, b)
		return nil
	}); err != nil {
		return err
	}
	return forEachPart(got, func(i int, b []byte) error {
		if bytes.Equal(b, parts[i]) {
			return nil
		}
		if i == len(got.Records) {
			return fmt.Errorf("aggregates differ: %s, want %s", b, parts[i])
		}
		return fmt.Errorf("record %d differs: %s, want %s", i, b, parts[i])
	})
}

// checkAccount requires the energy the stream's burst epochs report to
// sum to the run's energy account.
func checkAccount(st *streamCheck, a cluster.EnergyAccount) error {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"green", st.greenWh, float64(a.Green)},
		{"battery", st.battWh, float64(a.Battery)},
		{"grid", st.gridWh, float64(a.Grid)},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Max(1, math.Abs(c.want)) {
			return fmt.Errorf("%s: events sum to %.12g Wh, account holds %.12g Wh", c.name, c.got, c.want)
		}
	}
	return nil
}

// checkEpochs requires exactly one epoch event per epoch, numbered
// 0..total-1 without gaps.
func checkEpochs(st *streamCheck, total int) error {
	if st.gaps > 0 || st.epochs != total || st.next != total {
		return fmt.Errorf("%d epoch events (%d out of sequence, last %d), want %d numbered 0..%d",
			st.epochs, st.gaps, st.next-1, total, total-1)
	}
	return nil
}

// expectedChaos lists the transitions a resolved schedule must produce
// over a horizon of total epochs: each fault at its epoch, and its
// recovery at its recovery epoch when that falls inside the horizon.
func expectedChaos(s *chaos.Schedule, total int) []chaosEvent {
	var out []chaosEvent
	for _, f := range s.Faults {
		if f.Epoch < total {
			out = append(out, chaosEvent{f.Epoch, "fault", f.Mode.String(), f.Target})
		}
		if f.Recover != 0 && f.Recover < total && f.Epoch < total {
			out = append(out, chaosEvent{f.Recover, "recover", f.Mode.String(), f.Target})
		}
	}
	return out
}

// checkChaos requires the stream's fault and recovery events to be
// exactly the schedule's transitions.
func checkChaos(got []chaosEvent, s *chaos.Schedule, total int) error {
	want := expectedChaos(s, total)
	key := func(evs []chaosEvent) []string {
		out := make([]string, len(evs))
		for i, e := range evs {
			out[i] = fmt.Sprintf("%09d %s %s %d", e.Epoch, e.Kind, e.Mode, e.Target)
		}
		sort.Strings(out)
		return out
	}
	g, w := key(got), key(want)
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("stream has %d chaos transitions, schedule implies %d (stream %v, schedule %v)",
			len(g), len(w), head(g), head(w))
	}
	return nil
}

func head(s []string) []string {
	if len(s) > 6 {
		return s[:6]
	}
	return s
}

// checkStep requires a /step answer of 200 carrying a valid config.
func checkStep(code int, body []byte) (core.Decision, error) {
	var d core.Decision
	if code != http.StatusOK {
		return d, fmt.Errorf("POST /step answered %d: %s", code, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &d); err != nil {
		return d, fmt.Errorf("POST /step: %w", err)
	}
	if !d.Config.Valid() {
		return d, fmt.Errorf("POST /step: epoch %d: invalid config %+v", d.Epoch, d.Config)
	}
	return d, nil
}

// scrapedEpochs reads greensprint_epochs_total from a /metrics page.
func scrapedEpochs(page []byte) (int, error) {
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "greensprint_epochs_total" {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("greensprint_epochs_total: %w", err)
			}
			return int(v), nil
		}
	}
	return 0, fmt.Errorf("no greensprint_epochs_total on the /metrics page")
}

// checkScrape requires the scraped epoch count to equal the epochs
// stepped.
func checkScrape(page []byte, stepped int) error {
	n, err := scrapedEpochs(page)
	if err != nil {
		return err
	}
	if n != stepped {
		return fmt.Errorf("/metrics counts %d epochs, %d were stepped", n, stepped)
	}
	return nil
}

// checkDecisions requires two decision logs to be identical.
func checkDecisions(got, want []core.Decision) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d decisions, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("decision %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
