package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"replicatree/internal/cost"
	"replicatree/internal/power"
	"replicatree/internal/rng"
	"replicatree/internal/tree"
)

// instanceSeed fixes every workload's tree (the paper's venue year):
// --seed varies the traffic, not the instance, so runs with different
// seeds measure the same instance under different drift streams.
const instanceSeed = 2011

// Experiment 3's power and cost model (Section 5 of the paper): modes
// W1 = 5 and W2 = 10, static power W1^3/10 = 12.5, alpha = 3,
// create 0.1, delete 0.01, mode change 0.001.
var (
	exp3Caps   = []int{5, 10}
	exp3Static = 12.5
	exp3Alpha  = 3.0
	exp3Cost   = cost.Simple{Create: 0.1, Delete: 0.01}
	exp3Change = 0.001
)

// opKind is the type of one generated request.
type opKind int

const (
	opDrift opKind = iota
	opPlacement
	opFront
	opEval
	numOpKinds
)

var opNames = [numOpKinds]string{"drift", "placement", "front", "eval"}

// readRate is an open-loop read stream of one kind.
type readRate struct {
	kind opKind
	perS float64
}

// workload is one traffic mix against one loaded instance. README.md
// says why each exists and which layers it stresses or bypasses.
type workload struct {
	name  string
	nodes int
	// shape selects the generator preset: "scale" (tree.ScalePreset)
	// or "power" (tree.PowerConfig, Experiment 3's demand range).
	shape string
	// inline loads the instance as JSON (with a uniform QoS hop bound
	// qosHops) instead of asking the server to generate it.
	inline  bool
	qosHops int
	w       int
	chain   bool
	power   bool

	// Every drift redraws each client's demand with probability
	// redrawProb, uniformly in [1, reqMax], from a seed of the stream.
	redrawProb float64
	reqMax     int

	// Open loop: drifts and reads are due on fixed schedules.
	// Closed loop (closed): one client sends a drift, waits, then reads
	// the front, and repeats.
	closed    bool
	driftPerS float64
	reads     []readRate
	// evalDown is how many random non-root nodes an eval read takes
	// down.
	evalDown int
}

// The scale workloads run at W = 100: at W = 10 a chained 10^4-node
// instance carries hundreds of pre-existing servers, and one with-pre
// MinCost tick takes minutes instead of tens of milliseconds.
var workloads = []workload{
	{
		name: "drift-1e5", nodes: 100_000, shape: "scale", w: 100,
		redrawProb: 0.001, reqMax: 6,
		driftPerS: 20, reads: []readRate{{opPlacement, 2}},
	},
	{
		name: "chain-qos-1e4", nodes: 10_000, shape: "scale", inline: true, qosHops: 6, w: 100, chain: true,
		redrawProb: 0.01, reqMax: 6,
		driftPerS: 3, reads: []readRate{{opPlacement, 10}, {opEval, 10}}, evalDown: 3,
	},
	{
		name: "power-chain-50", nodes: 50, shape: "power", w: 10, chain: true, power: true,
		redrawProb: 0.12, reqMax: 5,
		closed: true,
	},
	{
		name: "power-nopre-150", nodes: 150, shape: "power", w: 10, power: true,
		redrawProb: 0.04, reqMax: 5,
		driftPerS: 40,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// readKinds lists the read operations the workload sends.
func (w workload) readKinds() []opKind {
	if w.closed {
		return []opKind{opFront}
	}
	ks := make([]opKind, len(w.reads))
	for i, r := range w.reads {
		ks[i] = r.kind
	}
	return ks
}

// genConfig returns the generator configuration the server uses for
// the workload's shape.
func (w workload) genConfig() tree.GenConfig {
	if w.shape == "power" {
		return tree.PowerConfig(w.nodes)
	}
	return tree.ScalePreset(w.nodes)
}

// exp3Power returns Experiment 3's power model.
func exp3Power() power.Model { return power.MustNew(exp3Caps, exp3Static, exp3Alpha) }

// instance builds the workload's tree and constraints exactly as the
// server will hold them after loading.
func (w workload) instance() (*tree.Tree, *tree.Constraints, error) {
	t, err := tree.Generate(w.genConfig(), rng.New(instanceSeed))
	if err != nil {
		return nil, nil, err
	}
	if !w.inline {
		return t, nil, nil
	}
	cons := tree.NewConstraints(t)
	cons.SetUniformQoS(t, w.qosHops)
	return t, cons, nil
}

// loadBody returns the POST /instances request of the workload.
func (w workload) loadBody(id string) ([]byte, error) {
	req := map[string]any{
		"id": id, "w": w.w, "chain": w.chain,
		"cost": map[string]float64{"create": exp3Cost.Create, "delete": exp3Cost.Delete},
	}
	if w.power {
		req["power"] = map[string]any{"caps": exp3Caps, "static": exp3Static, "alpha": exp3Alpha, "change": exp3Change}
	}
	if w.inline {
		t, cons, err := w.instance()
		if err != nil {
			return nil, err
		}
		var inst bytes.Buffer
		if err := tree.WriteInstanceJSON(&inst, t, cons); err != nil {
			return nil, err
		}
		req["instance"] = json.RawMessage(inst.Bytes())
	} else {
		req["gen"] = map[string]any{"nodes": w.nodes, "shape": w.shape, "seed": instanceSeed}
	}
	return json.Marshal(req)
}

// op is one generated request. Open-loop ops are due at an offset from
// the start of the measured window; closed-loop ops are sent in order.
type op struct {
	kind  opKind
	due   time.Duration
	drift redraw // opDrift
	down  []int  // opEval
}

// redraw is a drift request's body: the server redraws each client's
// demand with probability Prob from the stream seeded by Seed.
type redraw struct {
	Prob   float64 `json:"prob"`
	Seed   uint64  `json:"seed"`
	ReqMin int     `json:"reqmin"`
	ReqMax int     `json:"reqmax"`
}

// Streams of one run, each drawn independently from the run's seed.
// Replaying a stream a second time on the same instance would redraw
// the same clients to the values they already hold, so every phase
// that drifts the live instance gets a stream of its own.
const (
	streamMeasured  = 0 // the measured load phase (traced, in a traced run), and the twin replay
	streamReference = 1 // a traced run's untraced reference phase
	streamWarmup    = 2 // warm-up before any timing
)

// driftStream yields a workload's drift requests in order. It is
// seeded apart from the schedule, so the twin replay and the load
// phase draw the same drifts.
type driftStream struct {
	w   workload
	src *rng.Source
}

func (w workload) drifts(seed uint64, stream int) *driftStream {
	return &driftStream{w: w, src: rng.Derive(seed, 2*stream)}
}

func (d *driftStream) next() redraw {
	return redraw{Prob: d.w.redrawProb, Seed: d.src.Uint64(), ReqMin: 1, ReqMax: d.w.reqMax}
}

// downNodes draws the evalDown distinct non-root nodes an eval takes
// down. It draws them one by one rather than through rng.Sample, whose
// result keeps a permutation of every node alive (80 KB at 10^4
// nodes): held by the schedule for the whole window, those would grow
// the generator's memory with the window and count in peak_rss_mb.
func (w workload) downNodes(src *rng.Source) []int {
	down := make([]int, 0, w.evalDown)
	for len(down) < w.evalDown {
		j := 1 + src.IntN(w.nodes-1) // never the root
		if !slices.Contains(down, j) {
			down = append(down, j)
		}
	}
	return down
}

// schedule generates an open-loop workload's requests for a window of
// the given length from seed. Each kind has its rate's fixed slots. A
// read falls at a seeded uniform offset within its slot, so reads meet
// ticks at every phase instead of at one phase that a seed would pick
// for the whole run. A drift falls within a quarter slot of its slot's
// centre: at the calibrated rates two drifts then never arrive closer
// than about one tick apart, and drift latency measures the tick, not
// an arrival burst.
func (w workload) schedule(seed uint64, stream int, window time.Duration) []op {
	ds := w.drifts(seed, stream)
	src := rng.Derive(seed, 2*stream+1)
	var ops []op
	add := func(kind opKind, perS float64) {
		iv := time.Duration(float64(time.Second) / perS)
		n := int(math.Floor(window.Seconds() * perS))
		lo, span := 0.0, 1.0
		if kind == opDrift {
			lo, span = 0.25, 0.5
		}
		for i := 0; i < n; i++ {
			o := op{kind: kind, due: time.Duration((float64(i) + lo + span*src.Float64()) * float64(iv))}
			switch kind {
			case opDrift:
				o.drift = ds.next()
			case opEval:
				o.down = w.downNodes(src)
			}
			ops = append(ops, o)
		}
	}
	add(opDrift, w.driftPerS)
	for _, r := range w.reads {
		add(r.kind, r.perS)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}
