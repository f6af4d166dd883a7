package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"mithril/internal/expspec"
)

// Every generated input derives from the workload seed through these
// streams; the program under test receives only the generated files and
// request bodies.
const (
	streamSweep    = 1
	streamTemplate = 2
	streamRequests = 3
	streamMisses   = 4
	streamOrder    = 5
)

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6d697468726974^stream))
}

// cellSeed draws a simulation seed (the program treats 0 as "preset").
func cellSeed(r *rand.Rand) uint64 { return 2 + r.Uint64N(1<<30) }

// sweepInstr is the sweep grid's instruction budget per core: a tenth of
// golden scale, so one row simulates in a few tens of milliseconds on one
// core and a run repeats every row dozens of times (see sweepFleet).
const sweepInstr = 1000

// sweepSpec is the figure10 grid (36 rows: four RFM-compatible schemes,
// three FlipTH levels, benign, multi-sided and adversarial workloads) at
// golden scale with sweepInstr instructions per core and its scale seed
// drawn from the workload seed.
func sweepSpec(seed uint64) *expspec.Spec {
	return &expspec.Spec{
		Name:  "figure10.bench",
		Title: "Figure 10 grid, seeded",
		Kind:  expspec.Comparison,
		Scale: expspec.ScaleSpec{Preset: "golden", InstrPerCore: sweepInstr, Seed: cellSeed(rng(seed, streamSweep))},
		Axes: expspec.Axes{
			Schemes:     f10Schemes,
			FlipTHs:     f10FlipTHs,
			Workloads:   []string{"normal", "multi-sided-rh"},
			Adversarial: true,
		},
		Columns: columns[expspec.Comparison],
	}
}

// sweepRequests splits the sweep grid into one request per row, in an
// order drawn from the workload seed. Together they cover the grid once.
func sweepRequests(seed uint64) []*expspec.Spec {
	grid := sweepSpec(seed)
	var out []*expspec.Spec
	for _, scheme := range grid.Axes.Schemes {
		for _, flipTH := range grid.Axes.FlipTHs {
			// The benign and multi-sided rows, then the adversarial one.
			for _, w := range append(grid.Axes.Workloads, "") {
				sp := *grid
				sp.Name = fmt.Sprintf("%s.%s.%d.%s", grid.Name, scheme, flipTH, w)
				sp.Axes.Schemes = []string{scheme}
				sp.Axes.FlipTHs = []int{flipTH}
				sp.Axes.Workloads, sp.Axes.Adversarial = nil, w == ""
				if w != "" {
					sp.Axes.Workloads = []string{w}
				}
				out = append(out, &sp)
			}
		}
	}
	r := rng(seed, streamOrder)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Explicit columns for the served specs: every identity field (seed
// included) plus every value, so each streamed row can be matched to its
// reference row and compared in full.
var columns = map[expspec.Kind][]string{
	expspec.Comparison: {"scheme", "flipth", "rfmth", "workload", "seed", "perf", "energy", "tablekb", "safe"},
	expspec.SafetyKind: {"attack", "scheme", "flipth", "seed", "flips", "maxdisturbance", "safe", "verdict"},
	expspec.ConfigGrid: {"flipth", "rfmth", "seed", "mithril", "mithril+", "tablekb", "energy", "energy+"},
	expspec.AdTHSweep:  {"flipth", "rfmth", "adth", "seed", "energy:multi-programmed", "energy:multi-threaded", "nentry"},
}

// identity names the fields that identify a row's grid cell, per kind.
var identity = map[expspec.Kind][]string{
	expspec.Comparison: {"scheme", "flipth", "rfmth", "workload", "seed"},
	expspec.SafetyKind: {"attack", "scheme", "flipth", "seed"},
	expspec.ConfigGrid: {"flipth", "rfmth", "seed"},
	expspec.AdTHSweep:  {"flipth", "rfmth", "adth", "seed"},
}

var (
	f10Schemes    = []string{"parfm", "blockhammer", "mithril", "mithril+"}
	f10FlipTHs    = []int{50000, 6250, 1500}
	safetySchemes = []string{"none", "parfm", "blockhammer", "graphene", "twice", "cbt", "mithril", "mithril+"}
	safetyAttacks = []string{"double", "multi:32"}
	f9Grid        = []expspec.GridLevel{
		{FlipTH: 12500, RFMTHs: []int{512, 256, 128}},
		{FlipTH: 6250, RFMTHs: []int{256, 128, 64}},
		{FlipTH: 3125, RFMTHs: []int{128, 64, 32}},
		{FlipTH: 1500, RFMTHs: []int{32}},
	}
	f7Configs = []expspec.ConfigPoint{{FlipTH: 3125, RFMTH: 16}, {FlipTH: 6250, RFMTH: 64}}
	f7AdTHs   = []int{0, 50, 100, 150, 200}
	f7Loads   = []string{"multi-programmed", "multi-threaded"}
)

// mixPlan is the serve-mix input set for one seed: the template grids the
// store is warmed with, and the distinct cells that miss, one at a seeded
// position in every cycle of mixMissEvery requests, for as long as the
// run lasts.
type mixPlan struct {
	seed       uint64
	tmplSeeds  []uint64 // cell seeds of the template grids
	missOffset uint64   // the miss seeds walk missOffset + j*missStride
	missStride uint64   // odd, so the walk visits each seed once
}

// mixMissEvery sets the miss rate: one request in mixMissEvery names a
// cell that is not in the store. A miss simulates a golden-scale figure9
// cell (about 23 ms of CPU on a 2-vCPU Xeon host) where a store read
// costs the server about 0.7 ms of CPU, so at this rate simulation is
// about 8% of the server's CPU: reads dominate, and every run still
// writes a hundred or more rows beside them.
const mixMissEvery = 384

// seedHalf splits the cell-seed space: template seeds lie in the lower
// half, miss seeds in the upper, so no miss cell is ever in the template.
const seedHalf = 1 << 29

func newMixPlan(seed uint64) *mixPlan {
	r := rng(seed, streamTemplate)
	a := 2 + r.Uint64N(seedHalf)
	b := a
	for b == a {
		b = 2 + r.Uint64N(seedHalf)
	}
	return &mixPlan{seed: seed, tmplSeeds: []uint64{a, b}, missOffset: r.Uint64N(seedHalf), missStride: r.Uint64N(seedHalf) | 1}
}

// missSeed is the seed of the j-th miss cell. An odd stride modulo
// seedHalf makes the first seedHalf miss seeds distinct.
func (p *mixPlan) missSeed(j int) uint64 {
	return 2 + seedHalf + (p.missOffset+uint64(j)*p.missStride)%seedHalf
}

// miss reports whether request k is the miss of its cycle, and which
// miss it is.
func (p *mixPlan) miss(k int) (int, bool) {
	j := k / mixMissEvery
	r := rand.New(rand.NewPCG(p.seed, uint64(j)<<8|streamMisses))
	return j, k%mixMissEvery == r.IntN(mixMissEvery)
}

// golden is the scale of every served spec. Cell seeds ride the seeds
// axis, so the scale itself stays the preset for every request.
var golden = expspec.ScaleSpec{Preset: "golden"}

// templates are the golden-scale grids (subsets of figure10, safety,
// figure9 and figure7) the store template holds, over the template seeds.
func (p *mixPlan) templates() []*expspec.Spec {
	mk := func(name string, kind expspec.Kind, axes expspec.Axes) *expspec.Spec {
		axes.Seeds = p.tmplSeeds
		return &expspec.Spec{Name: name, Kind: kind, Scale: golden, Axes: axes, Columns: columns[kind]}
	}
	return []*expspec.Spec{
		mk("mix.figure10", expspec.Comparison, expspec.Axes{Schemes: f10Schemes, Workloads: []string{"normal"}}),
		mk("mix.safety", expspec.SafetyKind, expspec.Axes{Schemes: safetySchemes, FlipTHs: []int{2000}, Attacks: safetyAttacks}),
		mk("mix.figure9", expspec.ConfigGrid, expspec.Axes{Workloads: []string{"mix-high"}, Grid: f9Grid}),
		mk("mix.figure7", expspec.AdTHSweep, expspec.Axes{Configs: f7Configs, AdTHs: f7AdTHs, Workloads: f7Loads}),
	}
}

// missSpec is the grid of miss cells: one figure9 operating point over
// the given seeds, one row per seed.
func (p *mixPlan) missSpec(seeds []uint64) *expspec.Spec {
	return &expspec.Spec{
		Name: "mix.miss", Kind: expspec.ConfigGrid, Scale: golden,
		Axes:    expspec.Axes{Workloads: []string{"mix-high"}, Grid: []expspec.GridLevel{{FlipTH: 6250, RFMTHs: []int{128}}}, Seeds: seeds},
		Columns: columns[expspec.ConfigGrid],
	}
}

// mixCycle is the number of distinct hit requests: request k asks what
// request k mod mixCycle asked, so a run repeats each of them a hundred
// times or more, and wall_s, the sum of their median times, is the time
// of one cycle (see setDriveMetrics).
const mixCycle = 256

// shape is the position of request k in the cycle of hit requests.
func shape(k int) int { return k % mixCycle }

// request builds the k-th request of the sequence: a miss cell at its
// miss cycle's seeded position, otherwise a random subset of one template
// grid, drawn for the request's place in the cycle of hit requests.
func (p *mixPlan) request(k int) *expspec.Spec {
	if j, ok := p.miss(k); ok {
		sp := p.missSpec([]uint64{p.missSeed(j)})
		sp.Name = fmt.Sprintf("mix.miss.%d", j)
		return sp
	}
	r := rand.New(rand.NewPCG(p.seed, uint64(shape(k))<<8|streamRequests))
	t := p.templates()[pickFamily(r)]
	sp := *t
	sp.Name = fmt.Sprintf("%s.%d", t.Name, shape(k))
	sp.Axes.Seeds = subset(r, t.Axes.Seeds)
	switch t.Kind {
	case expspec.Comparison:
		sp.Axes.Schemes = subset(r, t.Axes.Schemes)
		sp.Axes.FlipTHs = subset(r, f10FlipTHs)
	case expspec.SafetyKind:
		sp.Axes.Schemes = subset(r, t.Axes.Schemes)
		sp.Axes.Attacks = subset(r, t.Axes.Attacks)
	case expspec.ConfigGrid:
		var grid []expspec.GridLevel
		for len(grid) == 0 {
			for _, lv := range t.Axes.Grid {
				if r.IntN(2) == 0 {
					grid = append(grid, expspec.GridLevel{FlipTH: lv.FlipTH, RFMTHs: subset(r, lv.RFMTHs)})
				}
			}
		}
		sp.Axes.Grid = grid
	case expspec.AdTHSweep:
		sp.Axes.Configs = subset(r, t.Axes.Configs)
		sp.Axes.AdTHs = subset(r, t.Axes.AdTHs)
	}
	return &sp
}

// pickFamily picks a template grid. No recorded serve traffic exists, so
// each of the four figure families gets an equal share.
func pickFamily(r *rand.Rand) int { return r.IntN(4) }

// subset keeps each element with probability 1/2, drawing again when
// none is kept: every non-empty subset of an axis is equally likely.
func subset[T any](r *rand.Rand, xs []T) []T {
	for {
		var out []T
		for _, x := range xs {
			if r.IntN(2) == 0 {
				out = append(out, x)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// specDoc renders a spec as the JSON document the program receives.
func specDoc(sp *expspec.Spec) []byte {
	data, err := json.Marshal(sp)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshalling a generated spec: %v", err))
	}
	return data
}

// expectedRows is the number of rows the program must emit for a spec.
func expectedRows(sp *expspec.Spec) (int, error) {
	sc, err := sp.Scale.Resolve()
	if err != nil {
		return 0, err
	}
	return len(sp.Expand(sc)), nil
}
