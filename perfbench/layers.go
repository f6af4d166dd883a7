package main

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"mithril"
	"mithril/internal/attack"
	"mithril/internal/cpu"
	"mithril/internal/dram"
	"mithril/internal/energy"
	"mithril/internal/expspec"
	"mithril/internal/mc"
	"mithril/internal/mitigation"
	"mithril/internal/rh"
	"mithril/internal/sim"
	"mithril/internal/stats"
	"mithril/internal/timing"
	"mithril/internal/trace"
)

// sampleEvery is how often a decorated call is timed: every call is
// counted, the first and every sampleEvery-th after it is also timed, and the layer's time
// is the sampled mean times the count. Timing each call would cost more
// than the cheapest calls themselves.
const sampleEvery = 32

// captureCap bounds the address and ACT streams captured per simulation
// for the replays.
const captureCap = 1 << 14

// attackInstrFactor mirrors the executor's longer budget for attack
// cells; the row comparison against the executor's own rows checks it.
const attackInstrFactor = 64

// calls counts calls and times a sample of them.
type calls struct {
	n, timed uint64
	ns       time.Duration
}

// estimate extrapolates the sampled time to every call.
func (c calls) estimate() time.Duration {
	if c.timed == 0 {
		return 0
	}
	return time.Duration(float64(c.ns) * float64(c.n) / float64(c.timed))
}

func (c *calls) add(o calls) { c.n += o.n; c.timed += o.timed; c.ns += o.ns }

// act is one captured activation.
type act struct {
	bank int
	row  uint32
	now  timing.PicoSeconds
}

// probe is one simulation's decorator state. A simulation runs on one
// goroutine, so the counters need no synchronization.
type probe struct {
	gen, onAct, onRFM calls
	preAct            uint64
	addrs             []uint64 // cached accesses, for the LLC replay
	writes            []bool
	acts              []act
}

// tracedScheme decorates an mc.Scheme, counting and timing its hooks.
// Embedding forwards every method it does not override.
type tracedScheme struct {
	mc.Scheme
	p *probe
}

func (s tracedScheme) OnActivate(bank int, row uint32, core int, now timing.PicoSeconds) []uint32 {
	p := s.p
	if len(p.acts) < captureCap {
		p.acts = append(p.acts, act{bank, row, now})
	}
	p.onAct.n++
	if p.onAct.n%sampleEvery != 1 {
		return s.Scheme.OnActivate(bank, row, core, now)
	}
	t := time.Now()
	v := s.Scheme.OnActivate(bank, row, core, now)
	p.onAct.ns += time.Since(t)
	p.onAct.timed++
	return v
}

func (s tracedScheme) OnRFM(bank int, now timing.PicoSeconds) []uint32 {
	p := s.p
	p.onRFM.n++
	if p.onRFM.n%sampleEvery != 1 {
		return s.Scheme.OnRFM(bank, now)
	}
	t := time.Now()
	v := s.Scheme.OnRFM(bank, now)
	p.onRFM.ns += time.Since(t)
	p.onRFM.timed++
	return v
}

func (s tracedScheme) PreACTDelay(bank int, row uint32, core int, now timing.PicoSeconds) timing.PicoSeconds {
	s.p.preAct++
	return s.Scheme.PreACTDelay(bank, row, core, now)
}

// tracedGen decorates a trace.Generator, counting and timing Next.
type tracedGen struct {
	trace.Generator
	p *probe
}

func (g tracedGen) Next() trace.Access {
	p := g.p
	p.gen.n++
	var a trace.Access
	if p.gen.n%sampleEvery != 1 {
		a = g.Generator.Next()
	} else {
		t := time.Now()
		a = g.Generator.Next()
		p.gen.ns += time.Since(t)
		p.gen.timed++
	}
	if !a.Uncached && len(p.addrs) < captureCap {
		p.addrs = append(p.addrs, a.Addr)
		p.writes = append(p.writes, a.Write)
	}
	return a
}

// simTotals aggregates every decorated simulation of a pass.
type simTotals struct {
	runs           int
	host           time.Duration
	simulated      timing.PicoSeconds
	gen, act, rfm  calls
	preAct         uint64
	llcWeighted    float64 // Σ LLC hit rate × memory ops
	mc             mc.Stats
	dev            dram.BankStats
	checkerUpdates uint64
}

// replay is a captured stream kept for the per-call replays.
type replay struct {
	params timing.Params
	flipTH int
	addrs  []uint64
	writes []bool
	acts   []act
}

// simLayer runs the workload's cells through sim.RunContext with the two
// interface seams decorated, sharing unprotected baselines the way the
// executor does.
type simLayer struct {
	spans *spanLog
	mu    sync.Mutex
	tot   simTotals
	caps  []replay
	base  map[string]*baseline
}

type baseline struct {
	once sync.Once
	res  sim.Result
	err  error
}

func newSimLayer(spans *spanLog) *simLayer {
	return &simLayer{spans: spans, base: map[string]*baseline{}}
}

// run executes one decorated simulation.
func (L *simLayer) run(ctx context.Context, cfg sim.Config, scheme mc.Scheme, parent int, name string) (sim.Result, error) {
	p := &probe{}
	if scheme == nil {
		scheme = mc.NoProtection{}
	}
	cfg.Scheme = tracedScheme{scheme, p}
	gens := make([]trace.Generator, len(cfg.Workload))
	for i, g := range cfg.Workload {
		gens[i] = tracedGen{g, p}
	}
	cfg.Workload = gens
	start := time.Now()
	res, err := sim.RunContext(ctx, cfg)
	end := time.Now()
	if err != nil {
		return res, err
	}
	L.spans.add(parent, "sim", name, start, end)
	L.mu.Lock()
	defer L.mu.Unlock()
	t := &L.tot
	t.runs++
	t.host += end.Sub(start)
	t.simulated += res.SimulatedTime
	t.gen.add(p.gen)
	t.act.add(p.onAct)
	t.rfm.add(p.onRFM)
	t.preAct += p.preAct
	t.llcWeighted += res.LLCHitRate * float64(p.gen.n)
	addStats(&t.mc, res.MC)
	addBankStats(&t.dev, res.Device)
	t.checkerUpdates += res.Safety.ACTs + res.Safety.Refreshes
	L.caps = append(L.caps, replay{params: cfg.Params, flipTH: cfg.FlipTH, addrs: p.addrs, writes: p.writes, acts: p.acts})
	return res, nil
}

func addStats(a *mc.Stats, b mc.Stats) {
	a.Served += b.Served
	a.RFMIssued += b.RFMIssued
	a.RFMSkipped += b.RFMSkipped
	a.REFIssued += b.REFIssued
	a.Rejected += b.Rejected
	a.ThrottleHit += b.ThrottleHit
}

func addBankStats(a *dram.BankStats, b dram.BankStats) {
	a.ACTs += b.ACTs
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.RowHits += b.RowHits
	a.RowMisses += b.RowMisses
	a.RowConflicts += b.RowConflicts
	a.PreventiveRows += b.PreventiveRows
}

// cfgFor mirrors the executor's per-workload configuration: attack
// workloads get the longer budget and end when the benign cores finish.
func cfgFor(sc expspec.Scale, flipTH int, w trace.Workload) sim.Config {
	cfg := expspec.BaseSimConfig(flipTH, sc)
	cfg.Workload = w.Fresh()
	if w.Attackers > 0 {
		cfg.InstrPerCore = sc.InstrPerCore * attackInstrFactor
		cfg.RequireCores = len(cfg.Workload) - w.Attackers
	}
	return cfg
}

// measure runs scheme on w against its shared baseline, as the executor
// does, and returns the normalized point.
func (L *simLayer) measure(ctx context.Context, sc expspec.Scale, scheme mc.Scheme, seed uint64, flipTH int, w trace.Workload, parent int) (expspec.PerfPoint, error) {
	key := fmt.Sprint(sc.Cores, sc.InstrPerCore, sc.TimeScale, seed, flipTH, w.Name)
	L.mu.Lock()
	bl, ok := L.base[key]
	if !ok {
		bl = &baseline{}
		L.base[key] = bl
	}
	L.mu.Unlock()
	bl.once.Do(func() { bl.res, bl.err = L.run(ctx, cfgFor(sc, flipTH, w), nil, parent, "baseline "+w.Name) })
	if bl.err != nil {
		return expspec.PerfPoint{}, bl.err
	}
	res, err := L.run(ctx, cfgFor(sc, flipTH, w), scheme, parent, scheme.Name()+" "+w.Name)
	if err != nil {
		return expspec.PerfPoint{}, err
	}
	pt := expspec.PerfPoint{Scheme: scheme.Name(), FlipTH: flipTH, Workload: w.Name, Seed: seed, Safe: res.Safety.Safe()}
	if b := expspec.BenignIPC(bl.res, w.Attackers); b > 0 {
		pt.RelativePerformance = 100 * expspec.BenignIPC(res, w.Attackers) / b
	}
	pt.EnergyOverheadPct = energy.OverheadPercent(res.Energy, bl.res.Energy)
	return pt, nil
}

// Workloads rebuilt from public constructors, as the executor builds them.

func normalSet(sc expspec.Scale, seed uint64) []trace.Workload {
	if sc.Cores < 16 {
		return []trace.Workload{trace.MixHigh(sc.Cores, seed), trace.FFT(sc.Cores, seed)}
	}
	var out []trace.Workload
	for _, w := range trace.NormalWorkloads(sc.Cores, seed) {
		out = append(out, w.Workload)
	}
	return out
}

func attackCores(sc expspec.Scale) int {
	switch {
	case sc.Cores >= 16:
		return sc.Cores
	case sc.Cores > 4:
		return 4
	}
	return sc.Cores
}

func multiSided(sc expspec.Scale, seed uint64) trace.Workload {
	mapper := mc.NewAddressMapper(sc.Params())
	benign := trace.MixHigh(attackCores(sc), seed)
	victims := 8
	if sc.Cores >= 16 {
		victims = 32
	}
	return trace.Workload{Name: "multi-sided-rh", Attackers: 1, Fresh: func() []trace.Generator {
		gens := benign.Fresh()
		gens[len(gens)-1] = attack.NewMultiSided(mapper, 1, 7, 4000, victims)
		return gens
	}}
}

// adversarial aims the collision adversary with the unwrapped scheme's
// oracle; only the measured run sees the decorated scheme.
func adversarial(sc expspec.Scale, seed uint64, oracle mc.Scheme) trace.Workload {
	mapper := mc.NewAddressMapper(sc.Params())
	n := attackCores(sc)
	benign := trace.MixHigh(n, seed)
	victimCore := max(n-2, 0)
	base := uint64(victimCore) << 28
	loc := mapper.Map(base)
	var rows []int
	if th, ok := oracle.(attack.Throttler); ok {
		for i := 0; i < 2; i++ {
			for _, r := range th.CollidingRows(loc.GlobalBank, uint32(loc.Row+i), 4) {
				rows = append(rows, int(r))
			}
		}
	}
	if len(rows) == 0 {
		for i := 0; i < 16; i++ {
			rows = append(rows, (loc.Row+64+8*i)%mapper.Params().Rows)
		}
	}
	return trace.Workload{Name: "bh-adversarial/" + oracle.Name(), Attackers: 1, Fresh: func() []trace.Generator {
		gens := benign.Fresh()
		gens[victimCore] = trace.NewStrided("service", base, 8<<20, 257, 6)
		gens[len(gens)-1] = attack.NewRowList("bh-adversarial", mapper, loc.Channel, loc.Bank, rows)
		return gens
	}}
}

// cellRow rebuilds one output row from public constructors and runs it
// decorated. Adth cells return nil: their workload classes are built by
// the executor alone, so they are timed only as rows (sweep layer).
func (L *simLayer) cellRow(ctx context.Context, sp *expspec.Spec, sc expspec.Scale, c expspec.Cell, parent int) (*expspec.Row, error) {
	scheme := func() (mc.Scheme, error) {
		return mitigation.Build(c.Scheme, mitigation.Options{Timing: sc.Params(), FlipTH: c.FlipTH, Seed: c.Seed})
	}
	switch sp.Kind {
	case expspec.Comparison:
		var ws []trace.Workload
		switch {
		case c.Adversarial:
			oracle, err := scheme()
			if err != nil {
				return nil, err
			}
			s, err := scheme()
			if err != nil {
				return nil, err
			}
			pt, err := L.measure(ctx, sc, s, c.Seed, c.FlipTH, adversarial(sc, c.Seed, oracle), parent)
			return &expspec.Row{Perf: &pt}, err
		case c.Attack != "":
			return nil, fmt.Errorf("attacks-axis cells are not rebuilt")
		case c.Workload == "normal":
			ws = normalSet(sc, c.Seed)
		case c.Workload == "multi-sided-rh":
			ws = []trace.Workload{multiSided(sc, c.Seed)}
		default:
			w, err := trace.BuildWorkload(c.Workload, sc.Cores, c.Seed)
			if err != nil {
				return nil, err
			}
			ws = []trace.Workload{w}
		}
		var perfs []float64
		var energySum float64
		safe := true
		var last expspec.PerfPoint
		for _, w := range ws {
			s, err := scheme()
			if err != nil {
				return nil, err
			}
			pt, err := L.measure(ctx, sc, s, c.Seed, c.FlipTH, w, parent)
			if err != nil {
				return nil, err
			}
			perfs = append(perfs, pt.RelativePerformance)
			energySum += pt.EnergyOverheadPct
			safe = safe && pt.Safe
			last = pt
		}
		if c.Workload == "normal" {
			last = expspec.PerfPoint{Scheme: c.Scheme, FlipTH: c.FlipTH, Workload: "normal", Seed: c.Seed,
				RelativePerformance: stats.Geomean(perfs), EnergyOverheadPct: energySum / float64(len(ws)), Safe: safe}
		}
		return &expspec.Row{Perf: &last}, nil
	case expspec.SafetyKind:
		s, err := scheme()
		if err != nil {
			return nil, err
		}
		mapper := mc.NewAddressMapper(sc.Params())
		oracle, _ := s.(attack.Throttler)
		gen, err := attack.Build(c.Attack, attack.Params{Mapper: mapper, Oracle: oracle})
		if err != nil {
			return nil, err
		}
		cfg := expspec.BaseSimConfig(c.FlipTH, sc)
		cfg.Workload = []trace.Generator{trace.NewStream("bg", 1<<28, 64<<20, 10, 4), gen}
		cfg.InstrPerCore = sc.InstrPerCore * attackInstrFactor
		cfg.RequireCores = 1
		res, err := L.run(ctx, cfg, s, parent, c.Scheme+" "+c.Attack)
		if err != nil {
			return nil, err
		}
		return &expspec.Row{Safety: &expspec.SafetyResult{Scheme: c.Scheme, Attack: gen.Name(), FlipTH: c.FlipTH, Seed: c.Seed,
			Flips: res.Safety.Flips, MaxDisturbance: res.Safety.MaxDisturbance, Safe: res.Safety.Safe()}}, nil
	case expspec.ConfigGrid:
		w, err := trace.BuildWorkload(sp.Axes.Workloads[0], sc.Cores, c.Seed)
		if err != nil {
			return nil, err
		}
		opt := mitigation.Options{Timing: sc.Params(), FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed}
		m, err := L.measure(ctx, sc, mitigation.NewMithril(opt), c.Seed, c.FlipTH, w, parent)
		if err != nil {
			return nil, err
		}
		plus, err := L.measure(ctx, sc, mitigation.NewMithrilPlus(opt), c.Seed, c.FlipTH, w, parent)
		if err != nil {
			return nil, err
		}
		return &expspec.Row{Grid: &expspec.Figure9Point{FlipTH: c.FlipTH, RFMTH: c.RFMTH, Seed: c.Seed,
			Mithril: m.RelativePerformance, MithrilPlus: plus.RelativePerformance,
			EnergyMithril: m.EnergyOverheadPct, EnergyPlus: plus.EnergyOverheadPct}}, nil
	}
	return nil, nil
}

// sameRow compares a rebuilt row with the executor's row on every
// simulated field.
func sameRow(kind expspec.Kind, got, want expspec.Row) bool {
	switch kind {
	case expspec.Comparison:
		g, w := got.Perf, want.Perf
		return g != nil && w != nil && g.Scheme == w.Scheme && g.Workload == w.Workload && g.FlipTH == w.FlipTH &&
			g.RelativePerformance == w.RelativePerformance && g.EnergyOverheadPct == w.EnergyOverheadPct && g.Safe == w.Safe
	case expspec.SafetyKind:
		g, w := got.Safety, want.Safety
		return g != nil && w != nil && *g == *w
	case expspec.ConfigGrid:
		g, w := got.Grid, want.Grid
		return g != nil && w != nil && g.Mithril == w.Mithril && g.MithrilPlus == w.MithrilPlus &&
			g.EnergyMithril == w.EnergyMithril && g.EnergyPlus == w.EnergyPlus
	}
	return false
}

// checkUnwrapped runs one benign cell's baseline and protected runs both
// decorated and through Engine.Compare undecorated; the two sim.Results
// of each must be identical.
func (L *simLayer) checkUnwrapped(ctx context.Context, sc expspec.Scale, seed uint64, flipTH int, parent int) error {
	w := trace.MixHigh(sc.Cores, seed)
	build := func() (mc.Scheme, error) {
		return mitigation.Build("mithril", mitigation.Options{Timing: sc.Params(), FlipTH: flipTH, Seed: seed})
	}
	s1, err := build()
	if err != nil {
		return err
	}
	base, err := L.run(ctx, cfgFor(sc, flipTH, w), nil, parent, "check baseline")
	if err != nil {
		return err
	}
	prot, err := L.run(ctx, cfgFor(sc, flipTH, w), s1, parent, "check mithril")
	if err != nil {
		return err
	}
	s2, err := build()
	if err != nil {
		return err
	}
	cmp, err := mithril.NewEngine(mithril.DDR5()).Compare(ctx, expspec.BaseSimConfig(flipTH, sc), w, s2)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(base, cmp.Baseline) || !reflect.DeepEqual(prot, cmp.Protected) {
		return fmt.Errorf("a decorated simulation's sim.Result differs from the undecorated Engine.Compare run")
	}
	return nil
}

// replayCosts feeds the captured streams into fresh instances of the
// LLC, the DRAM device and the RowHammer checker, and returns the time
// per call of each. LLC misses go on to the device, as in the simulator.
func replayCosts(caps []replay) (llcNs, devNs, checkerNs float64) {
	if len(caps) == 0 {
		return 0, 0, 0
	}
	p := caps[0].params
	llc := cpu.NewLLC(16<<20, 16)
	dev := dram.NewDevice(p, caps[0].flipTH, nil)
	chk := rh.NewChecker(p.Rows, caps[0].flipTH, rh.DoubleSidedWeights())
	mapper := mc.NewAddressMapper(p)
	mask := mapper.AddressSpace() - 1
	var nLLC, nDev, nChk int
	var tLLC, tDev, tChk time.Duration
	var miss []uint64
	var missW []bool
	for _, c := range caps {
		llc.Reset()
		miss, missW = miss[:0], missW[:0]
		t := time.Now()
		for i, a := range c.addrs {
			if !llc.Access(a & mask) {
				miss = append(miss, a&mask)
				missW = append(missW, c.writes[i])
			}
		}
		tLLC += time.Since(t)
		nLLC += len(c.addrs)

		dev.Reset()
		locs := make([]mc.Location, len(miss))
		for i, a := range miss {
			locs[i] = mapper.Map(a)
		}
		var now timing.PicoSeconds
		t = time.Now()
		for i, l := range locs {
			now += 3 * timing.Nanosecond
			dev.Access(l.GlobalBank, l.Row, missW[i], now)
		}
		tDev += time.Since(t)
		nDev += len(locs)

		chk.Reset()
		t = time.Now()
		for _, a := range c.acts {
			chk.OnActivate(int(a.row), a.now)
		}
		tChk += time.Since(t)
		nChk += len(c.acts)
	}
	per := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	return per(tLLC, nLLC), per(tDev, nDev), per(tChk, nChk)
}
