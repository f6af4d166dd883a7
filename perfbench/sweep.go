package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mithril/internal/expspec"
)

// sweepOutput is the JSON document `mithrilsim run -format json` prints.
type sweepOutput struct {
	Rows []map[string]any `json:"rows"`
}

// checkSweep verifies one sweep's output: the grid's row count, and every
// configured mithril and mithril+ row reports safe. want, when non-nil,
// must equal got byte for byte.
func checkSweep(got, want []byte, rows int) error {
	if want != nil && !bytes.Equal(got, want) {
		return fmt.Errorf("sweep output differs from the reference sweep (%d vs %d bytes)", len(got), len(want))
	}
	var doc sweepOutput
	if err := json.Unmarshal(got, &doc); err != nil {
		return fmt.Errorf("sweep output: %w", err)
	}
	if len(doc.Rows) != rows {
		return fmt.Errorf("sweep printed %d rows, grid has %d", len(doc.Rows), rows)
	}
	return checkSafe(doc.Rows)
}

// checkSafe requires every mithril and mithril+ row to report safe.
func checkSafe(rows []map[string]any) error {
	for _, r := range rows {
		if s, _ := r["scheme"].(string); s == "mithril" || s == "mithril+" {
			if safe, ok := r["safe"].(bool); !ok || !safe {
				return fmt.Errorf("%s row %v is not safe", s, r)
			}
		}
	}
	return nil
}

// writeSweepSpec writes the workload's seeded figure10 grid and returns
// its path and row count.
func writeSweepSpec(b *bench) (string, int, error) {
	sp := sweepSpec(b.seed)
	rows, err := expectedRows(sp)
	if err != nil {
		return "", 0, err
	}
	path := filepath.Join(b.work, sp.Name+".json")
	return path, rows, os.WriteFile(path, specDoc(sp), 0o644)
}

// sweepRef returns the local output (`mithrilsim run -jobs nproc`, no
// store) for this seed, running the local sweep once, untimed, when no
// cached copy exists. The copy is kept per seed and binary.
func sweepRef(ctx context.Context, b *bench, path string, rows int) ([]byte, error) {
	cached := filepath.Join(b.cache, fmt.Sprintf("sweep-ref-%d-%s.json", b.seed, b.binHash))
	if data, err := os.ReadFile(cached); err == nil {
		return data, nil
	}
	r, err := runCLI(ctx, b.bin, "run", path, "-jobs", fmt.Sprint(b.nproc), "-format", "json")
	if err != nil {
		return nil, err
	}
	if err := checkSweep(r.stdout, nil, rows); err != nil {
		return nil, err
	}
	if err := os.WriteFile(cached, r.stdout, 0o644); err != nil {
		b.problem(fmt.Errorf("caching the reference sweep: %w", err))
	}
	return r.stdout, nil
}

// The fleet is one worker running one simulation job, so the program
// runs one simulation at a time. The shared host this benchmark runs on
// gives a second busy thread anything from a whole core to none, from
// one minute to the next, so parallel sweeps measure the host's
// allocation rather than the program. With one worker the coordinator
// still carves the grid into shards (fractions of the remaining rows),
// sends each over the /v1 shard wire and merges the streams.
const (
	fleetWorkers = 1
	workerJobs   = 1
)

// fleet is a set of running `mithrilsim serve` workers.
type fleet []*server

func (f fleet) urls() string {
	var u []string
	for _, s := range f {
		u = append(u, s.url)
	}
	return strings.Join(u, ",")
}

func (f fleet) cpu() time.Duration {
	var t time.Duration
	for _, s := range f {
		t += s.cpu()
	}
	return t
}

// stop stops every worker and returns their total CPU time and their
// largest peak RSS in KB.
func (f fleet) stop() (cpu time.Duration, rssKB int64) {
	for _, s := range f {
		c, r := s.stop()
		cpu += c
		rssKB = max(rssKB, r)
	}
	return cpu, rssKB
}

// startFleet starts the fleet's workers and returns once each answers
// /v1/healthz.
func startFleet(ctx context.Context, b *bench) (fleet, error) {
	var f fleet
	for i := 0; i < fleetWorkers; i++ {
		s, err := startServer(ctx, b.bin, "-jobs", fmt.Sprint(workerJobs))
		if err != nil {
			f.stop()
			return nil, err
		}
		f = append(f, s)
	}
	return f, nil
}

// startFront starts the fleet and a coordinator in front of it,
// `mithrilsim serve -coordinator -workers URL`. The returned fleet holds
// the workers and, last, the coordinator; set-up time runs until the
// coordinator answers /v1/healthz.
func startFront(ctx context.Context, b *bench) (fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(ctx, b)
	if err != nil {
		return nil, 0, err
	}
	coord, err := startServer(ctx, b.bin, "-coordinator", "-workers", f.urls())
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return append(f, coord), time.Since(start), nil
}

// fleetSetupRuns is how many times the fleet and its coordinator are
// started for set-up time; the last start serves the timed phase.
const fleetSetupRuns = 12

// sweepFleet posts the seeded figure10 grid, one row per request, to a
// coordinator fronting the fleet, cycle after cycle for the measuring
// time. Neither has a store, so every request simulates its row afresh:
// the coordinator sends it to the worker as a shard over the /v1 shard
// wire and merges the streamed row back. Every row must equal the same
// cell's row of the local sweep.
func sweepFleet(ctx context.Context, b *bench) error {
	path, rows, err := writeSweepSpec(b)
	if err != nil {
		return err
	}
	ref, err := sweepRef(ctx, b, path, rows)
	if err != nil {
		return fmt.Errorf("reference local sweep: %w", err)
	}
	var doc sweepOutput
	if err := decodeUseNumber(ref, &doc); err != nil {
		return fmt.Errorf("reference local sweep: %w", err)
	}
	want := refs{}
	for _, row := range doc.Rows {
		want[rowIdentity(expspec.Comparison, row)] = canonical(row)
	}
	var cycle []mixRequest
	for _, sp := range sweepRequests(b.seed) {
		n, err := expectedRows(sp)
		if err != nil {
			return err
		}
		cycle = append(cycle, mixRequest{sp: sp, doc: specDoc(sp), rows: n})
	}
	next := func(k int) (mixRequest, error) {
		req := cycle[k%len(cycle)]
		req.k = k
		return req, nil
	}
	var setups []float64
	var f fleet
	for i := 0; i < fleetSetupRuns; i++ {
		var setup time.Duration
		if f, setup, err = startFront(ctx, b); err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		if i < fleetSetupRuns-1 {
			f.stop()
		}
	}
	cpu0 := f.cpu()
	stopRSS := sampleRSS(f)
	start := time.Now()
	res := driveMix(ctx, next, want, f[len(f)-1].url, start.Add(b.seconds), len(cycle), nil, 0)
	rss := stopRSS()
	cpu := f.cpu() - cpu0
	_, peak := f.stop()
	b.absorb(res)
	setDriveMetrics(b, setups, res, start, cpu, rss, peak, len(cycle), func(k int) (int, bool) { return k % len(cycle), true })
	return nil
}
