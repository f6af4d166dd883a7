package expspec

// Content-addressed row keys: every grid cell hashes to a
// resultstore.Key covering everything that determines its output row —
// the canonicalized cell values, the resolved timing parameters, the
// scale geometry, the experiment kind, and the schema/registry version
// stamp. Two cells with equal keys are guaranteed to produce
// byte-identical rows, so executors may serve either's stored result for
// the other; anything that could change a row's numbers must change its
// key. Axis order, spec name/title, column selection, and worker count
// are deliberately absent: none of them affect a row's values.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"sort"
	"strconv"
	"strings"

	"mithril/internal/attack"
	"mithril/internal/mitigation"
	"mithril/internal/resultstore"
	"mithril/internal/sweep"
	"mithril/internal/trace"
)

// StoreStamp is the version stamp rows are keyed and stored under:
// the resultstore schema version plus the mitigation-registry
// fingerprint. A scheme registration (in-tree or out-of-tree) or a
// schema bump changes it, so stale stored rows stop matching instead of
// being served.
func StoreStamp() string {
	return resultstore.Stamp(mitigation.Names())
}

// cellKey derives one cell's content address. cacheable is false for
// rows the store must not serve — trace-replay workloads, whose row
// values depend on file contents the key cannot see.
func (s *Spec) cellKey(sc Scale, c Cell, stamp string) (key resultstore.Key, cacheable bool, err error) {
	if strings.HasPrefix(c.Workload, trace.TracePrefix) {
		return resultstore.Key{}, false, nil
	}
	comp := map[string]string{
		"stamp": stamp,
		// The resolved parameter set, not just TimeScale: a change to the
		// DDR5 constants must invalidate rows even at an unchanged scale.
		"timing":      fmt.Sprintf("%+v", sc.Params()),
		"cores":       strconv.Itoa(sc.Cores),
		"instr":       strconv.FormatInt(sc.InstrPerCore, 10),
		"timescale":   strconv.Itoa(sc.TimeScale),
		"kind":        string(s.Kind),
		"seed":        strconv.FormatUint(c.Seed, 10),
		"flipth":      strconv.Itoa(c.FlipTH),
		"rfmth":       strconv.Itoa(c.RFMTH),
		"adth":        strconv.Itoa(c.AdTH),
		"scheme":      c.Scheme,
		"workload":    c.Workload,
		"adversarial": strconv.FormatBool(c.Adversarial),
	}
	if c.Attack != "" {
		// The canonical spelling, so "multi:08" and "multi:8" share a key
		// (they build the same generator).
		canon, err := attack.Canonical(c.Attack)
		if err != nil {
			return resultstore.Key{}, false, err
		}
		comp["attack"] = canon
	}
	if s.Kind == AdTHSweep {
		// An adth row sweeps every workload class in one cell; the sorted
		// set (not the axis order, which cannot change the map-shaped row)
		// is part of what the row measures.
		ws := append([]string(nil), s.Axes.Workloads...)
		sort.Strings(ws)
		comp["workloads"] = strings.Join(ws, ",")
	}
	return resultstore.HashComponents(comp), true, nil
}

// StoreKeys derives the content address of every expanded grid row at
// once: the stamp the keys embed, one key per cell in Expand order, and
// the parallel cacheable mask (false marks rows a store must never serve,
// i.e. trace-replay workloads). Executions never need it — their Binding
// keys the rows it runs — but tools that inspect or replay a store do.
func (s *Spec) StoreKeys(sc Scale) (stamp string, keys []resultstore.Key, cacheable []bool, err error) {
	b, err := s.Bind(sc, nil, nil)
	if err == nil {
		err = b.keyRows()
	}
	if err != nil {
		return "", nil, nil, err
	}
	return b.stamp, b.keys, b.cacheable, nil
}

// Binding is one spec execution's link between its grid rows, the result
// store and the caller: it holds each row's content key and the stamp,
// probes the store before a row runs (Hit), and writes the row back and
// steps the Progress count once the row is done (Complete). It is the only
// place a row meets the store or the caller, so every executor treats rows
// alike: the local worker pool (Rows, behind StreamRowsAt) and a fleet
// coordinator, which only sources rows — from workers, from Rows for the
// rows it keeps, or from Hit — and hands each to Complete.
type Binding struct {
	spec      *Spec
	sc        Scale
	cells     []Cell
	rows      []int // the bound grid rows, in order
	stamp     string
	baselines *BaselineCache
	store     resultstore.Store
	keys      []resultstore.Key // indexed like cells; set for the bound rows
	cacheable []bool
	progress  func(done, total int)
	done      int
}

// Bind validates the spec and binds an execution of the named grid rows
// (nil: every expanded cell) at sc under opts. Subset indices must be
// in-range and free of duplicates — a duplicated row would double-count in
// every consumer and a wild index has no cell to realize. With a store,
// every bound row is keyed here, so a bad attack spelling fails before
// anything runs.
func (s *Spec) Bind(sc Scale, rows []int, opts *ExecOptions) (*Binding, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Binding{spec: s, sc: sc, cells: s.Expand(sc), stamp: StoreStamp()}
	if rows == nil {
		b.rows = make([]int, len(b.cells))
		for i := range b.rows {
			b.rows[i] = i
		}
	} else {
		seen := make(map[int]bool, len(rows))
		for _, i := range rows {
			if i < 0 || i >= len(b.cells) {
				return nil, fmt.Errorf("spec %q: row %d out of range (grid has %d rows)", s.Name, i, len(b.cells))
			}
			if seen[i] {
				return nil, fmt.Errorf("spec %q: duplicate row %d in subset", s.Name, i)
			}
			seen[i] = true
		}
		b.rows = append([]int(nil), rows...)
	}
	if opts != nil {
		b.baselines, b.store, b.progress = opts.Baselines, opts.Store, opts.Progress
	}
	if b.baselines == nil {
		b.baselines = NewBaselineCache()
	}
	if b.store != nil {
		if err := b.keyRows(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// keyRows derives the content address of every bound row.
func (b *Binding) keyRows() error {
	b.keys = make([]resultstore.Key, len(b.cells))
	b.cacheable = make([]bool, len(b.cells))
	for _, i := range b.rows {
		key, ok, err := b.spec.cellKey(b.sc, b.cells[i], b.stamp)
		if err != nil {
			return err
		}
		b.keys[i], b.cacheable[i] = key, ok
	}
	return nil
}

// Cells returns the expanded grid, indexed by Row.Index.
func (b *Binding) Cells() []Cell { return b.cells }

// Stamp returns the version stamp the rows are keyed and stored under.
func (b *Binding) Stamp() string { return b.stamp }

// Hit serves grid row i from the store, marked Row.Cached. Any defect in a
// stored record — missing, stale stamp, undecodable payload, a point of
// the wrong kind — is a miss (the row runs and Complete overwrites the
// record), never an error: the store is an accelerator, not a dependency.
func (b *Binding) Hit(i int) (Row, bool) {
	if b.store == nil || !b.cacheable[i] {
		return Row{}, false
	}
	rec, ok := b.store.Get(b.keys[i])
	if !ok || rec.Stamp != b.stamp {
		return Row{}, false
	}
	row := Row{Index: i, Cell: b.cells[i], Cached: true}
	if !DecodeRowPayload(b.spec.Kind, rec.Payload, &row) {
		return Row{}, false
	}
	return row, true
}

// Complete finishes a row on the caller's side: it sets the row's Cell,
// writes a simulated row back to the store, and steps the Progress count.
// The write is skipped when the store already holds the identical record
// under the current stamp — as it does when a worker sharing the store
// wrote it first — so a store sees each row Put once. A write failure is
// loud: a store that stops accepting writes mid-sweep means rows the
// operator asked to persist are being lost, and silently degrading to
// compute-only would hide that until the re-run. An execution calls
// Complete once per row, from the one goroutine that yields its rows, so
// Progress calls are serialized without a lock.
func (b *Binding) Complete(row Row) (Row, error) {
	row.Cell = b.cells[row.Index]
	if !row.Cached && b.store != nil && b.cacheable[row.Index] {
		payload, err := EncodeRowPayload(row)
		if err != nil {
			return Row{}, err
		}
		rec := resultstore.Record{Key: b.keys[row.Index], Stamp: b.stamp, Payload: payload}
		if old, ok := b.store.Get(rec.Key); !ok || old.Stamp != rec.Stamp || !bytes.Equal(old.Payload, payload) {
			if err := b.store.Put(rec); err != nil {
				return Row{}, err
			}
		}
	}
	b.done++
	if b.progress != nil {
		b.progress(b.done, len(b.rows))
	}
	return row, nil
}

// Rows executes grid rows (nil: every bound row) on the local worker pool
// with sc.Jobs workers, yielding each as it finishes — completion order,
// served by Hit when the store holds it — for the caller to Complete. The
// sequence ends with a single non-nil error when a row fails or ctx is
// cancelled; breaking out cancels the rest, and no worker outlives the
// range. Construction failures (a workload that will not build) are
// returned before the first yield.
func (b *Binding) Rows(ctx context.Context, rows []int) (iter.Seq2[Row, error], error) {
	if rows == nil {
		rows = b.rows
	}
	rr, err := b.newRowRunner(rows)
	if err != nil {
		return nil, err
	}
	return func(yield func(Row, error) bool) {
		for iv, err := range sweep.StreamContext(ctx, b.sc.Jobs, len(rows), rr.run) {
			if !yield(iv.V, err) || err != nil {
				return
			}
		}
	}, nil
}

// storedRow is the serialized row payload: exactly one pointer set,
// matching the spec kind, like Row itself. encoding/json round-trips
// float64 exactly, so a decoded row renders byte-identically to the
// simulated one in every output format including golden.
type storedRow struct {
	Perf   *PerfPoint    `json:"perf,omitempty"`
	Safety *SafetyResult `json:"safety,omitempty"`
	Grid   *Figure9Point `json:"grid,omitempty"`
	AdTH   *Figure7Point `json:"adth,omitempty"`
}

// EncodeRowPayload serializes a completed row's point for the store or
// the wire. JSON round-trips float64 exactly, so a decoded row renders
// byte-identically to the locally simulated one in every output format
// including golden. This is what a distributed worker sends per row
// (lossy display projections like RowValues drop columns the spec doesn't
// emit, so they cannot carry a row between processes).
func EncodeRowPayload(row Row) (json.RawMessage, error) {
	payload, err := json.Marshal(storedRow{Perf: row.Perf, Safety: row.Safety, Grid: row.Grid, AdTH: row.AdTH})
	if err != nil {
		return nil, fmt.Errorf("expspec: encoding row %d: %w", row.Index, err)
	}
	return payload, nil
}

// DecodeRowPayload deserializes a payload produced by EncodeRowPayload
// into row's point field for the kind. ok is false for any mismatch —
// undecodable payload, wrong or missing point — which a store probe
// treats as a miss and a fleet coordinator as an undelivered row.
func DecodeRowPayload(kind Kind, payload json.RawMessage, row *Row) bool {
	var sr storedRow
	if err := json.Unmarshal(payload, &sr); err != nil {
		return false
	}
	switch kind {
	case Comparison:
		row.Perf = sr.Perf
		return sr.Perf != nil
	case SafetyKind:
		row.Safety = sr.Safety
		return sr.Safety != nil
	case ConfigGrid:
		row.Grid = sr.Grid
		return sr.Grid != nil
	case AdTHSweep:
		row.AdTH = sr.AdTH
		return sr.AdTH != nil
	}
	return false
}
