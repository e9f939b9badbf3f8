package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// One short run of a gated workload, untraced and traced: the last
// line is the JSON result with exactly the reported metrics.
func TestRunPrintsResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "power-chain-50", "--seed", "5", "--seconds", "1", "--trace", trace,
			"--workdir", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool                       `json:"correct"`
			Attempted int                        `json:"attempted"`
			Failed    int                        `json:"failed"`
			Metrics   map[string]json.RawMessage `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		want := []string{"setup_s", "drift_p50_ms", "drift_ok_per_s", "read_p50_ms", "peak_rss_mb"}
		if trace == "1" {
			want = []string{"loadgen.late_p99_ms", "core.power.solve_ms_p50", "serve.session.tick_ms_p50",
				"trace.tick_coverage", "trace.overhead_frac"}
		} else {
			if len(res.Metrics) != len(want) {
				t.Errorf("trace 0 reports %d metrics, want %d", len(res.Metrics), len(want))
			}
			for _, printed := range []string{"metric drift_tail_ms", "metric read_tail_ms", "metric error_rate"} {
				if !strings.Contains(out.String(), printed) {
					t.Errorf("output lacks %q", printed)
				}
			}
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %s: metric %s missing", trace, name)
			}
		}
	}
}

// An open-loop run prints how late the generator sent, and a workload
// without reads leaves read latency out of its result.
func TestOpenLoopRunWithoutReads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var out, errOut bytes.Buffer
	args := []string{"--workload", "power-nopre-150", "--seed", "5", "--seconds", "1", "--trace", "0", "--workdir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "loadgen load late_p99_ms") {
		t.Error("output lacks the generator's lateness")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Metrics["read_p50_ms"]; ok {
		t.Error("a run without reads reports read_p50_ms")
	}
	if _, ok := res.Metrics["drift_p50_ms"]; !ok {
		t.Error("drift_p50_ms missing")
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func TestCheckEvalRequiresConservation(t *testing.T) {
	if err := checkEval([]byte(`{"issued":10,"served":6,"unserved":3,"fail_unserved":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := checkEval([]byte(`{"issued":10,"served":6,"unserved":3,"fail_unserved":0}`)); err == nil {
		t.Fatal("a response losing one request passed the check")
	}
}

func TestSameJSONNamesMismatch(t *testing.T) {
	if err := sameJSON("placement", json.RawMessage(`[0,1,0]`), []int{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	err := sameJSON("placement", json.RawMessage(`[0,1,0]`), []int{1, 1, 0})
	if err == nil || !strings.Contains(err.Error(), "placement mismatch") {
		t.Fatalf("err = %v, want a placement mismatch", err)
	}
}
