package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mithril/internal/expspec"
	"mithril/internal/resultstore"
	"mithril/internal/timing"
)

// Fixed amounts of work in the traced run, so its work counts repeat
// exactly between runs at one seed.
const (
	tracedMixRequests   = 1536 // serve-mix requests in the untraced and traced serve passes
	tracedSweepRequests = 24   // sweep-spec requests in a sweep workload's serve pass
	tracedPrepareRounds = 64   // Parse/Expand/StoreKeys repetitions of a sweep spec
)

// tracedRun holds the workload's inputs and the traced passes' results.
type tracedRun struct {
	b       *bench
	root    int // root span
	specs   []*expspec.Spec
	paths   []string // spec files handed to the CLI
	grid    int      // Σ rows over specs
	plan    *mixPlan // serve-mix only
	tmpl    *mixTemplate
	sweep   []byte           // sweep-fleet: the local sweep output
	refs    refs             // reference rows for served and fleet output
	rows    [][]expspec.Row  // the executor's rows, by spec and grid index
	rebuilt [][]*expspec.Row // the decorated rebuilds (nil: not rebuilt)
	store   string           // store the row pass wrote
	docs    [][]byte         // request documents for the expspec and store passes
}

// traced is the per-layer run: it executes the workload's operation once
// untraced, then drives every layer through its public functions with
// spans and counters, and prints the per-layer metrics.
func traced(ctx context.Context, b *bench) error {
	root, endRoot := b.spans.open(0, "bench", "traced "+b.workload)
	defer endRoot()
	t := &tracedRun{b: b, root: root}
	if err := t.inputs(ctx); err != nil {
		return err
	}
	untraced, err := t.untracedOp(ctx)
	if err != nil {
		return err
	}
	if err := t.simPass(ctx); err != nil {
		return err
	}
	if err := t.rowPass(ctx); err != nil {
		return err
	}
	t.expspecPass()
	if err := t.storePass(); err != nil {
		return err
	}
	serveWall, err := t.servePass(ctx)
	if err != nil {
		return err
	}
	fleetWall, err := t.fleetPass(ctx)
	if err != nil {
		return err
	}
	// The traced pass repeats the untraced operation with tracing on:
	// the same sweep through proxied workers, or the same requests with
	// spans recorded.
	tracedWall, op := fleetWall, "proxied fleet pass"
	if b.workload == "serve-mix" {
		tracedWall, op = serveWall, "span-recording serve pass"
	}
	b.set("bench.trace_overhead_s", "s", (tracedWall - untraced).Seconds())
	b.note("tracing overhead: traced %.3f s - untraced %.3f s (traced op: %s)", tracedWall.Seconds(), untraced.Seconds(), op)
	b.set("host.nproc", "count", float64(b.nproc))
	b.set("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)))
	b.note("serveapi.ttfb_ms_p99: dropped, a traced serve pass has too few requests for ten beyond p99")
	b.note("expspec.rows_cached/rows_simulated/hit_ratio count the traced serve pass's rows")
	checkCounts(b)
	return nil
}

// inputs generates the workload's specs (and serve-mix's template).
func (t *tracedRun) inputs(ctx context.Context) error {
	b := t.b
	if b.workload == "serve-mix" {
		t.plan = newMixPlan(b.seed)
		tmpl, err := ensureTemplate(ctx, b, t.plan)
		if err != nil {
			return err
		}
		t.tmpl, t.refs = tmpl, tmpl.refs
		t.specs = t.plan.templates()
		for k := 0; k < tracedMixRequests; k++ {
			req, err := t.plan.build(k)
			if err != nil {
				return err
			}
			t.docs = append(t.docs, req.doc)
		}
	} else {
		sp := sweepSpec(b.seed)
		t.specs = []*expspec.Spec{sp}
		for i := 0; i < tracedPrepareRounds; i++ {
			t.docs = append(t.docs, specDoc(sp))
		}
	}
	for _, sp := range t.specs {
		n, err := expectedRows(sp)
		if err != nil {
			return err
		}
		t.grid += n
		path := filepath.Join(b.work, sp.Name+".json")
		if err := os.WriteFile(path, specDoc(sp), 0o644); err != nil {
			return err
		}
		t.paths = append(t.paths, path)
	}
	return nil
}

// untracedOp runs the workload's operation once with tracing off; the
// traced equivalent's wall time minus this is the tracing overhead.
func (t *tracedRun) untracedOp(ctx context.Context) (time.Duration, error) {
	b := t.b
	if b.workload == "sweep-fleet" {
		ref, err := sweepRef(ctx, b, t.paths[0], t.grid)
		if err != nil {
			return 0, err
		}
		t.sweep = ref
		f, err := startFleet(ctx, b)
		if err != nil {
			return 0, err
		}
		r, err := runCLI(ctx, b.bin, "run", t.paths[0], "-workers", f.urls(), "-format", "json")
		f.stop()
		if err != nil {
			return 0, err
		}
		b.op(checkSweep(r.stdout, ref, t.grid))
		return r.wall, nil
	}
	srv, err := startMixServer(ctx, b, t.tmpl)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	res := driveMix(ctx, t.plan.build, t.refs, srv.url, time.Time{}, tracedMixRequests, nil, 0)
	wall := res.end.Sub(start)
	srv.stop()
	if err := checkMisses(ctx, b, t.plan, res); err != nil {
		return 0, err
	}
	b.absorb(res)
	return wall, nil
}

// simPass rebuilds every cell from public constructors and runs it with
// the scheme and generator seams decorated (sim, cpu, trace, mc, dram,
// mitigation, rh), then replays the captured streams for per-call costs.
func (t *tracedRun) simPass(ctx context.Context) error {
	b := t.b
	L := newSimLayer(b.spans)
	type job struct {
		si, ci int
		sc     expspec.Scale
		cell   expspec.Cell
		heavy  bool
	}
	var jobs []job
	rebuilt := make([][]*expspec.Row, len(t.specs))
	for si, sp := range t.specs {
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return err
		}
		cells := sp.Expand(sc)
		rebuilt[si] = make([]*expspec.Row, len(cells))
		if sp.Kind == expspec.AdTHSweep {
			continue
		}
		for ci, c := range cells {
			heavy := c.Adversarial || c.Workload == "multi-sided-rh" || sp.Kind == expspec.SafetyKind
			jobs = append(jobs, job{si, ci, sc, c, heavy})
		}
	}
	// Long attack cells first, so the pass does not end on one.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].heavy && !jobs[j].heavy })
	pass, endPass := b.spans.open(t.root, "bench", "sim pass")
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, b.nproc)
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) || errs[w] != nil {
					return
				}
				j := jobs[i]
				sp := t.specs[j.si]
				id, done := b.spans.open(pass, "expspec", fmt.Sprintf("%s cell %d", sp.Name, j.ci))
				row, err := L.cellRow(ctx, sp, j.sc, j.cell, id)
				done()
				if err != nil {
					errs[w] = fmt.Errorf("%s cell %d: %w", sp.Name, j.ci, err)
					return
				}
				rebuilt[j.si][j.ci] = row
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	endPass()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	t.rebuilt = rebuilt

	// One benign cell, decorated and through Engine.Compare undecorated.
	sc, _ := t.specs[0].Scale.Resolve()
	c := t.specs[0].Expand(sc)[0]
	b.op(newSimLayer(b.spans).checkUnwrapped(ctx, sc, c.Seed, c.FlipTH, t.root))

	tot := L.tot
	llcNs, devNs, chkNs := replayCosts(L.caps)
	served := float64(tot.mc.Served)
	gen, act, rfm := tot.gen.estimate(), tot.act.estimate(), tot.rfm.estimate()
	b.set("sim.runs", "count", float64(tot.runs))
	b.set("sim.host_s", "s", tot.host.Seconds())
	b.set("sim.simulated_ms", "ms", float64(tot.simulated)/float64(timing.Millisecond))
	b.set("sim.host_ns_per_sim_ns", "ns/ns", ratio(float64(tot.host.Nanoseconds()), float64(tot.simulated)/float64(timing.Nanosecond)))
	b.set("cpu.mem_ops", "count", float64(tot.gen.n))
	b.set("cpu.llc_hit_ratio", "ratio", ratio(tot.llcWeighted, float64(tot.gen.n)))
	b.set("cpu.llc_ns_per_access", "ns", llcNs)
	b.set("trace.gen_ns_per_op", "ns", ratio(float64(gen.Nanoseconds()), float64(tot.gen.n)))
	b.set("mc.served", "count", served)
	b.set("mc.rejected_ratio", "ratio", ratio(float64(tot.mc.Rejected), served+float64(tot.mc.Rejected)))
	b.set("mc.throttle_hits", "count", float64(tot.mc.ThrottleHit))
	b.set("mc.rfm_issued", "count", float64(tot.mc.RFMIssued))
	b.set("mc.rfm_skipped", "count", float64(tot.mc.RFMSkipped))
	b.set("mc.ref_issued", "count", float64(tot.mc.REFIssued))
	// Host time not covered by the other sim-side layers: the controller
	// and the simulation loop.
	covered := float64(gen+act+rfm) + llcNs*float64(tot.gen.n) +
		devNs*float64(tot.dev.Reads+tot.dev.Writes) + chkNs*float64(tot.dev.ACTs)
	b.set("mc.residual_ns_per_served", "ns", ratio(float64(tot.host.Nanoseconds())-covered, served))
	b.set("dram.acts", "count", float64(tot.dev.ACTs))
	b.set("dram.row_hit_ratio", "ratio", ratio(float64(tot.dev.RowHits), float64(tot.dev.RowHits+tot.dev.RowMisses+tot.dev.RowConflicts)))
	b.set("dram.preventive_rows", "count", float64(tot.dev.PreventiveRows))
	b.set("dram.access_ns", "ns", devNs)
	b.set("mitigation.onactivate_calls", "count", float64(tot.act.n))
	b.set("mitigation.onactivate_ns", "ns", ratio(float64(act.Nanoseconds()), float64(tot.act.n)))
	b.set("mitigation.onrfm_calls", "count", float64(tot.rfm.n))
	b.set("mitigation.onrfm_ns", "ns", ratio(float64(rfm.Nanoseconds()), float64(tot.rfm.n)))
	b.set("mitigation.preactdelay_calls", "count", float64(tot.preAct))
	b.set("rh.checker_updates", "count", float64(tot.checkerUpdates))
	b.set("rh.checker_ns_per_act", "ns", chkNs)
	b.note("sim pass: %d simulations in %.3f s wall; adth cells are timed only as rows", tot.runs, wall.Seconds())
	return nil
}

// rowPass executes every spec row by row through Spec.StreamRowsAt with
// nproc workers, a shared baseline cache and a fresh disk store, one span
// per row (sweep layer). It checks the rebuilt rows against these.
func (t *tracedRun) rowPass(ctx context.Context) error {
	b := t.b
	dir, err := os.MkdirTemp(b.work, "rows-store-")
	if err != nil {
		return err
	}
	disk, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	t.store = dir
	t.rows = make([][]expspec.Row, len(t.specs))
	pass, endPass := b.spans.open(t.root, "bench", "row pass")
	var rowMs []float64
	var busy time.Duration
	start := time.Now()
	for si, sp := range t.specs {
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return err
		}
		sc.Jobs = 1
		n := len(sp.Expand(sc))
		t.rows[si] = make([]expspec.Row, n)
		opts := &expspec.ExecOptions{Baselines: expspec.NewBaselineCache(), Store: disk}
		specSpan, endSpec := b.spans.open(pass, "expspec", sp.Name)
		var next atomic.Int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		for w := 0; w < b.nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					t0 := time.Now()
					seq, err := sp.StreamRowsAt(ctx, sc, []int{i}, opts)
					if err == nil {
						for row, rerr := range seq {
							if rerr != nil {
								err = rerr
								break
							}
							t.rows[si][row.Index] = row
						}
					}
					t1 := time.Now()
					b.spans.add(specSpan, "sweep", fmt.Sprintf("row %d", i), t0, t1)
					mu.Lock()
					rowMs = append(rowMs, ms(t1.Sub(t0)))
					busy += t1.Sub(t0)
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("%s row %d: %w", sp.Name, i, err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		endSpec()
		if firstErr != nil {
			disk.Close()
			return firstErr
		}
	}
	wall := time.Since(start)
	endPass()
	if err := disk.Close(); err != nil {
		return err
	}
	b.set("sweep.rows", "count", float64(len(rowMs)))
	b.set("sweep.row_ms_p50", "ms", median(rowMs))
	b.set("sweep.row_ms_max", "ms", maxOf(rowMs))
	b.set("sweep.busy_ratio", "ratio", busy.Seconds()/(float64(b.nproc)*wall.Seconds()))
	b.note("row pass: %d rows in %.3f s wall", len(rowMs), wall.Seconds())

	// Rebuilt (decorated) rows must equal the executor's rows, and the
	// executor's rows must equal the references.
	for si, sp := range t.specs {
		sc, _ := sp.Scale.Resolve()
		for ci, row := range t.rows[si] {
			if rb := t.rebuilt[si][ci]; rb != nil {
				var err error
				if !sameRow(sp.Kind, *rb, row) {
					err = fmt.Errorf("%s row %d: decorated rebuild differs from the executor's row", sp.Name, ci)
				}
				b.op(err)
			}
			vals, err := sp.RowValues(sc, row)
			if err != nil {
				return err
			}
			data, err := json.Marshal(vals)
			if err != nil {
				return err
			}
			var m map[string]any
			if err := decodeUseNumber(data, &m); err != nil {
				return err
			}
			if err := checkSafe([]map[string]any{m}); err != nil {
				b.problem(err)
			}
			id, got := rowIdentity(sp.Kind, m), canonical(m)
			if t.plan == nil {
				if t.refs == nil {
					t.refs = refs{}
				}
				t.refs[id] = got
			} else if t.refs[id] != got {
				b.problem(fmt.Errorf("%s row %d: in-process row %s differs from the template's %s", sp.Name, ci, got, t.refs[id]))
			}
		}
	}
	return nil
}

// expspecPass times the spec layer's request preparation (Parse, Expand,
// StoreKeys) and row emission (RowValues and JSON encoding).
func (t *tracedRun) expspecPass() {
	b := t.b
	_, end := b.spans.open(t.root, "expspec", "prepare")
	var prep []float64
	for _, doc := range t.docs {
		t0 := time.Now()
		sp, err := expspec.Parse(doc)
		if err != nil {
			b.problem(err)
			continue
		}
		sc, err := sp.Scale.Resolve()
		if err != nil {
			b.problem(err)
			continue
		}
		_ = sp.Expand(sc)
		if _, _, _, err := sp.StoreKeys(sc); err != nil {
			b.problem(err)
		}
		prep = append(prep, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	end()
	_, end = b.spans.open(t.root, "expspec", "emit")
	var emitted int
	t0 := time.Now()
	for si, sp := range t.specs {
		sc, _ := sp.Scale.Resolve()
		for _, row := range t.rows[si] {
			vals, err := sp.RowValues(sc, row)
			if err == nil {
				_, err = json.Marshal(vals)
			}
			if err != nil {
				b.problem(err)
			}
			emitted++
		}
	}
	emit := time.Since(t0)
	end()
	b.set("expspec.prepare_us", "us", median(prep))
	b.set("expspec.emit_us_per_row", "us", ratio(float64(emit.Nanoseconds())/1e3, float64(emitted)))
}

// storePass replays the workload's key sequence against copies of the
// store the row pass wrote: Open, Get of every key the requests name, and
// Put of every record into an empty store.
func (t *tracedRun) storePass() error {
	b := t.b
	_, end := b.spans.open(t.root, "resultstore", "replay")
	defer end()
	var opens []float64
	var disk *resultstore.Disk
	for i := 0; i < 3; i++ {
		dir, err := os.MkdirTemp(b.work, "store-copy-")
		if err != nil {
			return err
		}
		if err := copyDir(dir, t.store); err != nil {
			return err
		}
		t0 := time.Now()
		d, err := resultstore.Open(dir)
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t0)))
		if i < 2 {
			d.Close()
		} else {
			disk = d
		}
	}
	defer disk.Close()
	var keys []resultstore.Key
	for _, doc := range t.docs {
		sp, err := expspec.Parse(doc)
		if err != nil {
			return err
		}
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return err
		}
		_, ks, cacheable, err := sp.StoreKeys(sc)
		if err != nil {
			return err
		}
		for i, k := range ks {
			if cacheable[i] {
				keys = append(keys, k)
			}
		}
	}
	hits := 0
	t0 := time.Now()
	for _, k := range keys {
		if _, ok := disk.Get(k); ok {
			hits++
		}
	}
	get := time.Since(t0)
	var recs []resultstore.Record
	disk.Scan(func(r resultstore.Record) bool { recs = append(recs, r); return true })
	st, err := disk.Stats()
	if err != nil {
		return err
	}
	emptyDir, err := os.MkdirTemp(b.work, "store-empty-")
	if err != nil {
		return err
	}
	empty, err := resultstore.Open(emptyDir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, r := range recs {
		if err := empty.Put(r); err != nil {
			empty.Close()
			return err
		}
	}
	put := time.Since(t0)
	if err := empty.Close(); err != nil {
		return err
	}
	b.set("resultstore.open_ms", "ms", median(opens))
	b.set("resultstore.get_us", "us", ratio(float64(get.Nanoseconds())/1e3, float64(len(keys))))
	b.set("resultstore.put_us", "us", ratio(float64(put.Nanoseconds())/1e3, float64(len(recs))))
	b.set("resultstore.records", "count", float64(st.Records))
	b.set("resultstore.segment_bytes", "bytes", float64(st.Bytes))
	b.note("store replay: %d gets (%d hits), %d puts", len(keys), hits, len(recs))
	return nil
}

// servePass posts the workload's requests to `mithrilsim serve -store`
// on a copy of the warmed store, splitting each request at the response
// header (serveapi layer).
func (t *tracedRun) servePass(ctx context.Context) (time.Duration, error) {
	b := t.b
	var srv *server
	var err error
	next := func(k int) (mixRequest, error) {
		return mixRequest{k: k, sp: t.specs[0], doc: t.docs[0], rows: t.grid}, nil
	}
	count := tracedSweepRequests
	if t.plan != nil {
		srv, err = startMixServer(ctx, b, t.tmpl)
		next, count = t.plan.build, tracedMixRequests
	} else {
		srv, err = startMixServer(ctx, b, &mixTemplate{store: t.store})
	}
	if err != nil {
		return 0, err
	}
	pass, endPass := b.spans.open(t.root, "bench", "serve pass")
	start := time.Now()
	res := driveMix(ctx, next, t.refs, srv.url, time.Time{}, count, b.spans, pass)
	wall := res.end.Sub(start)
	endPass()
	srv.stop()
	if t.plan != nil {
		if err := checkMisses(ctx, b, t.plan, res); err != nil {
			return 0, err
		}
	}
	b.absorb(res)
	b.set("serveapi.requests", "count", float64(res.attempted))
	b.set("serveapi.errors", "count", float64(res.errors))
	b.set("serveapi.ttfb_ms_p50", "ms", median(res.ttfb))
	b.set("serveapi.stream_ms_p50", "ms", median(res.stream))
	b.set("expspec.rows_cached", "count", float64(res.cached))
	b.set("expspec.rows_simulated", "count", float64(res.simulated))
	b.set("expspec.hit_ratio", "ratio", ratio(float64(res.cached), float64(res.rows)))
	return wall, nil
}

// fleetPass runs the workload's specs through a coordinator whose
// workers sit behind counting reverse proxies (distrib layer).
func (t *tracedRun) fleetPass(ctx context.Context) (time.Duration, error) {
	b := t.b
	f, err := startFleet(ctx, b)
	if err != nil {
		return 0, err
	}
	defer f.stop()
	pass, endPass := b.spans.open(t.root, "bench", "fleet pass")
	defer endPass()
	var proxies []*proxy
	var urls []string
	for _, s := range f {
		p, err := newProxy(s.url, b.spans, pass)
		if err != nil {
			return 0, err
		}
		defer p.close()
		proxies = append(proxies, p)
		urls = append(urls, p.url)
	}
	var wall time.Duration
	var tails []float64
	for i, path := range t.paths {
		r, err := runCLI(ctx, b.bin, "run", path, "-workers", strings.Join(urls, ","), "-format", "json")
		end := time.Now()
		if err != nil {
			b.op(err)
			continue
		}
		wall += r.wall
		var last time.Time
		for _, p := range proxies {
			p.inflight.Wait()
			if e := p.lastEnd(); e.After(last) {
				last = e
			}
		}
		tails = append(tails, ms(end.Sub(last)))
		b.op(t.checkFleetOutput(t.specs[i], r.stdout))
	}
	var st proxyStats
	for _, p := range proxies {
		st.add(p.stats())
	}
	b.set("distrib.shards", "count", float64(st.shards))
	b.set("distrib.rows_dispatched", "count", float64(st.rows))
	b.set("distrib.redispatched_rows", "count", float64(st.rows-t.grid))
	b.set("distrib.shard_ms_p50", "ms", median(st.shardMs))
	b.set("distrib.shard_ms_max", "ms", maxOf(st.shardMs))
	b.set("distrib.wire_bytes", "bytes", float64(st.bytes))
	b.set("distrib.worker_busy_ratio", "ratio", ratio(sum(st.shardMs)/1e3, float64(len(f))*wall.Seconds()))
	b.set("distrib.merge_tail_ms", "ms", median(tails))
	return wall, nil
}

// checkFleetOutput compares a fleet run's output with the local sweep
// (sweep-fleet, byte for byte) or with the reference rows.
func (t *tracedRun) checkFleetOutput(sp *expspec.Spec, out []byte) error {
	if t.plan == nil {
		return checkSweep(out, t.sweep, t.grid)
	}
	var doc sweepOutput
	if err := decodeUseNumber(out, &doc); err != nil {
		return err
	}
	n, err := expectedRows(sp)
	if err != nil {
		return err
	}
	if len(doc.Rows) != n {
		return fmt.Errorf("fleet %s: %d rows, grid has %d", sp.Name, len(doc.Rows), n)
	}
	for _, row := range doc.Rows {
		id := rowIdentity(sp.Kind, row)
		if got := canonical(row); got != t.refs[id] {
			return fmt.Errorf("fleet %s: row %s differs from its reference %s", sp.Name, got, t.refs[id])
		}
	}
	return nil
}

// checkCounts requires every work count to equal the previous traced run's
// at this seed and build; the first run records them.
func checkCounts(b *bench) {
	counts := map[string]float64{}
	for name, m := range b.metrics {
		if m.Unit == "count" && !strings.HasPrefix(name, "host.") {
			counts[name] = m.Value
		}
	}
	path := filepath.Join(b.cache, fmt.Sprintf("counts-%s-%d-%s.json", b.workload, b.seed, b.binHash))
	if data, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(data, &prev); err != nil {
			b.problem(fmt.Errorf("reading %s: %w", path, err))
			return
		}
		var diffs []string
		for name, v := range counts {
			if pv, ok := prev[name]; !ok || pv != v {
				diffs = append(diffs, fmt.Sprintf("%s %v -> %v", name, pv, v))
			}
		}
		sort.Strings(diffs)
		if len(diffs) > 0 {
			b.problem(fmt.Errorf("work counts differ from the previous traced run at this seed: %s", strings.Join(diffs, "; ")))
		} else {
			b.note("work counts repeat exactly (%d counts, compared with the previous traced run)", len(counts))
		}
		return
	}
	data, err := json.Marshal(counts)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		b.problem(fmt.Errorf("recording work counts: %w", err))
	}
	b.note("work counts recorded (%d counts); the next traced run at this seed must repeat them", len(counts))
}

// proxy is a counting reverse proxy in front of one fleet worker.
type proxy struct {
	url   string
	srv   *http.Server
	done  chan struct{}
	rp    *httputil.ReverseProxy
	spans *spanLog
	span  int
	// inflight counts requests being proxied; the coordinator can exit
	// before a handler has finished recording its shard.
	inflight sync.WaitGroup
	mu       sync.Mutex
	st       proxyStats
	last     time.Time
}

type proxyStats struct {
	shards, rows int
	bytes        int64
	shardMs      []float64
}

func (s *proxyStats) add(o proxyStats) {
	s.shards += o.shards
	s.rows += o.rows
	s.bytes += o.bytes
	s.shardMs = append(s.shardMs, o.shardMs...)
}

func newProxy(target string, spans *spanLog, parent int) (*proxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &proxy{url: "http://" + ln.Addr().String(), done: make(chan struct{}), spans: spans, span: parent}
	p.rp = httputil.NewSingleHostReverseProxy(u)
	p.rp.FlushInterval = -1 // stream NDJSON records as they arrive
	p.srv = &http.Server{Handler: p}
	go func() {
		defer close(p.done)
		_ = p.srv.Serve(ln)
	}()
	return p, nil
}

func (p *proxy) close() {
	_ = p.srv.Close()
	<-p.done
}

func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.inflight.Add(1)
	defer p.inflight.Done()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var shard struct {
		Spec json.RawMessage `json:"spec"`
		Rows []int           `json:"rows"`
	}
	_ = json.Unmarshal(body, &shard)
	r.Body = io.NopCloser(bytes.NewReader(body))
	r.ContentLength = int64(len(body))
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	// Recorded on the way out even when the proxy aborts the handler: a
	// coordinator that has read a shard's summary record may hang up
	// before the worker's response has fully drained.
	defer func() { p.record(shard.Spec != nil, len(shard.Rows), int64(len(body))+cw.n, start, time.Now()) }()
	p.rp.ServeHTTP(cw, r)
}

// record accounts one proxied request.
func (p *proxy) record(isShard bool, rows int, bytes int64, start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.st.bytes += bytes
	if !isShard {
		return
	}
	p.st.shards++
	p.st.rows += rows
	p.st.shardMs = append(p.st.shardMs, ms(end.Sub(start)))
	p.spans.add(p.span, "distrib", fmt.Sprintf("shard %d rows", rows), start, end)
	if end.After(p.last) {
		p.last = end
	}
}

func (p *proxy) stats() proxyStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

func (p *proxy) lastEnd() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// countingWriter counts response bytes and keeps the writer flushable.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }
