package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestLiveStagesSumToLatency runs a short traced open loop and checks
// that every request's rx + queue + service + tx, each from its own
// seam, sums in integer ns to the latency the client observed from the
// request's due time.
func TestLiveStagesSumToLatency(t *testing.T) {
	w, err := newLiveWorld()
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	sp := newSpans(1 << 12)
	res, err := w.openPhase(r, 7, sp, 5000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	recordStages(r, res, sp)
	if len(r.problems) > 0 || r.failed != 0 {
		t.Fatalf("failed=%d problems=%v", r.failed, r.problems)
	}
	n := 0
	for c, p := range res.plans {
		for i := range p.due {
			j := (uint64(i)*liveConns + uint64(c)) & sp.mask
			if sp.steer[j] == 0 || sp.start[j] == 0 || sp.end[j] == 0 || p.recvAt[i] == 0 {
				t.Fatalf("conn %d request %d: missing stamp", c, i)
			}
			d := stageDurations(p.due[i], sp.steer[j], sp.start[j], sp.end[j], p.recvAt[i])
			var sum int64
			for _, v := range d {
				if v < 0 {
					t.Fatalf("conn %d request %d: negative stage in %v", c, i, d)
				}
				sum += v
			}
			if lat := p.recvAt[i] - p.due[i]; sum != lat {
				t.Fatalf("conn %d request %d: stages %v sum to %d, latency %d", c, i, d, sum, lat)
			}
			n++
		}
	}
	if n < 500 {
		t.Fatalf("only %d requests traced", n)
	}
}

// TestCheckValue pins what the GET check accepts: exactly the bytes the
// client preloaded or wrote for that key.
func TestCheckValue(t *testing.T) {
	good := valueBytes(nil, 42, 3)
	if why := checkValue(good, 42, 3); why != "" {
		t.Fatalf("written value rejected: %s", why)
	}
	flipped := append([]byte(nil), good...)
	flipped[liveValLen-1] ^= 1
	for name, c := range map[string]struct {
		val    []byte
		key    int
		maxVer uint32
	}{
		"other key":      {good, 43, 3},
		"future version": {good, 42, 2},
		"flipped byte":   {flipped, 42, 3},
		"short":          {good[:10], 42, 3},
	} {
		if checkValue(c.val, c.key, c.maxVer) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Scheduler).tick":   "core",
		"repro/internal/sim.(*Engine).fire":       "sim",
		"repro/internal/mica.(*partition).get":    "mica",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"internal/runtime/syscall.Syscall6":       "",
		"slices.pdqsortCmpFunc[...]":              "",
		"main.runSim":                             "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in main.go and
// the benchmark's declaration in BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, main.go %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), main.go %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, main.go %d", len(decl.Workloads), len(workloads))
	}
	for _, wl := range decl.Workloads {
		if workloads[wl.Name] == nil {
			t.Errorf("workload %s is not implemented", wl.Name)
		}
	}
}
