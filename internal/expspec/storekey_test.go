package expspec

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"mithril/internal/resultstore"
)

// keySet expands a spec at sc and returns every cacheable cell's key.
func keySet(t *testing.T, s *Spec, sc Scale) map[resultstore.Key]bool {
	t.Helper()
	stamp := StoreStamp()
	keys := map[resultstore.Key]bool{}
	for _, c := range s.Expand(sc) {
		k, ok, err := s.cellKey(sc, c, stamp)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			keys[k] = true
		}
	}
	return keys
}

func sameKeySet(a, b map[resultstore.Key]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Axis order is presentation, not content: permuting every axis of a
// spec must leave the key set untouched (the rows are the same rows),
// even though Expand's emission order changes.
func TestCellKeyInvariantUnderAxisReorder(t *testing.T) {
	fwd := &Spec{
		Name: "k", Kind: Comparison,
		Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{
			Schemes:   []string{"none", "mithril", "graphene"},
			FlipTHs:   []int{6250, 1500},
			Workloads: []string{"mix-high", "fft"},
			Attacks:   []string{"single", "double"},
			Seeds:     []uint64{1, 2},
		},
	}
	rev := &Spec{
		Name: "k-reordered", Kind: Comparison,
		Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{
			Schemes:   []string{"graphene", "mithril", "none"},
			FlipTHs:   []int{1500, 6250},
			Workloads: []string{"fft", "mix-high"},
			Attacks:   []string{"double", "single"},
			Seeds:     []uint64{2, 1},
		},
	}
	sc := QuickScale()
	a, b := keySet(t, fwd, sc), keySet(t, rev, sc)
	if len(a) != 2*2*3*(2+2) {
		t.Fatalf("key set size = %d", len(a))
	}
	if !sameKeySet(a, b) {
		t.Fatal("axis reorder changed the key set")
	}
}

// Two spellings of one canonical attack are one pattern and must share a
// key; the adth workload axis likewise keys by sorted set, not order.
func TestCellKeyCanonicalSpellings(t *testing.T) {
	sc := QuickScale()
	stamp := StoreStamp()
	s := &Spec{Name: "k", Kind: SafetyKind, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"mithril"}, FlipTHs: []int{2000}, Attacks: []string{"multi:8"}}}
	base := Cell{Seed: 1, FlipTH: 2000, Scheme: "mithril", Attack: "multi:8"}
	k1, ok, err := s.cellKey(sc, base, stamp)
	if err != nil || !ok {
		t.Fatalf("cellKey: %v %v", ok, err)
	}
	padded := base
	padded.Attack = "multi:08"
	k2, ok, err := s.cellKey(sc, padded, stamp)
	if err != nil || !ok {
		t.Fatalf("cellKey: %v %v", ok, err)
	}
	if k1 != k2 {
		t.Fatal("multi:8 and multi:08 build the same generator but key differently")
	}

	adth := &Spec{Name: "a", Kind: AdTHSweep, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 1600}}, AdTHs: []int{0},
			Workloads: []string{"multi-programmed", "multi-threaded"}}}
	adthRev := &Spec{Name: "a", Kind: AdTHSweep, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Configs: []ConfigPoint{{FlipTH: 6250, RFMTH: 1600}}, AdTHs: []int{0},
			Workloads: []string{"multi-threaded", "multi-programmed"}}}
	cell := Cell{Seed: 1, FlipTH: 6250, RFMTH: 1600}
	ka, _, err := adth.cellKey(sc, cell, stamp)
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := adthRev.cellKey(sc, cell, stamp)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("adth workload-axis order changed the key")
	}
}

// Every component that can change a row's values must change its key.
func TestCellKeySensitivity(t *testing.T) {
	s := &Spec{Name: "k", Kind: Comparison, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"mithril"}, FlipTHs: []int{6250}, Workloads: []string{"mix-high"}}}
	sc := QuickScale()
	stamp := StoreStamp()
	base := Cell{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "mix-high"}
	baseKey, ok, err := s.cellKey(sc, base, stamp)
	if err != nil || !ok {
		t.Fatalf("cellKey: %v %v", ok, err)
	}
	check := func(name string, spec *Spec, scale Scale, c Cell, st string) {
		t.Helper()
		k, ok, err := spec.cellKey(scale, c, st)
		if err != nil || !ok {
			t.Fatalf("%s: cellKey: %v %v", name, ok, err)
		}
		if k == baseKey {
			t.Errorf("changing %s kept the key", name)
		}
	}
	mutCell := func(name string, mut func(*Cell)) {
		c := base
		mut(&c)
		check(name, s, sc, c, stamp)
	}
	mutCell("seed", func(c *Cell) { c.Seed = 2 })
	mutCell("flipth", func(c *Cell) { c.FlipTH = 1500 })
	mutCell("rfmth", func(c *Cell) { c.RFMTH = 1600 })
	mutCell("adth", func(c *Cell) { c.AdTH = 8 })
	mutCell("scheme", func(c *Cell) { c.Scheme = "graphene" })
	mutCell("workload", func(c *Cell) { c.Workload = "fft" })
	mutCell("adversarial", func(c *Cell) { c.Adversarial = true })
	mutCell("attack", func(c *Cell) { c.Attack = "single" })

	mutScale := func(name string, mut func(*Scale)) {
		s2 := sc
		mut(&s2)
		check(name, s, s2, base, stamp)
	}
	mutScale("cores", func(x *Scale) { x.Cores = 4 })
	mutScale("instr", func(x *Scale) { x.InstrPerCore = 777 })
	mutScale("timescale", func(x *Scale) { x.TimeScale = 4 })

	// Jobs must NOT change the key: worker count cannot change row values
	// (parallel and serial sweeps are byte-identical by contract).
	jobs := sc
	jobs.Jobs = 3
	k, _, err := s.cellKey(jobs, base, stamp)
	if err != nil {
		t.Fatal(err)
	}
	if k != baseKey {
		t.Error("worker count changed the key; warm stores would miss across -jobs settings")
	}

	// Kind and stamp discriminate too.
	s2 := *s
	s2.Kind = SafetyKind
	check("kind", &s2, sc, base, stamp)
	check("stamp", s, sc, base, "v999+deadbeef")
}

// trace:<path> workloads replay file contents the key cannot see: never
// cacheable, in any kind that accepts them.
func TestCellKeyTraceWorkloadsUncacheable(t *testing.T) {
	s := &Spec{Name: "k", Kind: Comparison, Scale: ScaleSpec{Preset: "quick"},
		Axes: Axes{Schemes: []string{"mithril"}, Workloads: []string{"trace:/tmp/x.trace"}}}
	_, ok, err := s.cellKey(QuickScale(), Cell{Seed: 1, FlipTH: 6250, Scheme: "mithril", Workload: "trace:/tmp/x.trace"}, StoreStamp())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("trace workload reported cacheable")
	}
}

// Stored payloads must round-trip exactly and refuse kind mismatches.
func TestStoredRowRoundTrip(t *testing.T) {
	row := Row{Index: 3, Perf: &PerfPoint{
		Scheme: "mithril", FlipTH: 6250, Workload: "mix-high", Seed: 1,
		RelativePerformance: 98.7654321012345, EnergyOverheadPct: 1.0000000000000002,
		TableKB: 33.3, Safe: true,
	}}
	payload, err := EncodeRowPayload(row)
	if err != nil {
		t.Fatal(err)
	}
	var back Row
	if !DecodeRowPayload(Comparison, payload, &back) {
		t.Fatal("DecodeRowPayload rejected a matching payload")
	}
	if *back.Perf != *row.Perf {
		t.Fatalf("round trip drifted: %+v vs %+v", back.Perf, row.Perf)
	}
	var wrong Row
	if DecodeRowPayload(SafetyKind, payload, &wrong) {
		t.Fatal("DecodeRowPayload accepted a comparison payload for a safety row")
	}
	if DecodeRowPayload(Comparison, json.RawMessage(`{not json`), &wrong) {
		t.Fatal("DecodeRowPayload accepted garbage")
	}
}

// trafficStore counts store calls per key.
type trafficStore struct {
	resultstore.Store
	mu         sync.Mutex
	gets, puts map[resultstore.Key]int
}

func newTrafficStore() *trafficStore {
	return &trafficStore{Store: resultstore.NewMem(), gets: map[resultstore.Key]int{}, puts: map[resultstore.Key]int{}}
}

func (s *trafficStore) Get(k resultstore.Key) (resultstore.Record, bool) {
	s.mu.Lock()
	s.gets[k]++
	s.mu.Unlock()
	return s.Store.Get(k)
}

func (s *trafficStore) Put(rec resultstore.Record) error {
	s.mu.Lock()
	s.puts[rec.Key]++
	s.mu.Unlock()
	return s.Store.Put(rec)
}

// TestBindingStoreTraffic pins what a binding asks of the store: a warm
// row costs exactly one Get and no Put, a cold row is Put once, a row
// already stored identically is not Put again, and a damaged record under
// the current stamp is a miss that the row's Complete overwrites.
func TestBindingStoreTraffic(t *testing.T) {
	s := tiny()
	sc := streamScale(t, 2)
	st := newTrafficStore()
	drain := func() *Result {
		t.Helper()
		res, err := s.RunAtContext(context.Background(), sc, &ExecOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	drain()
	_, keys, _, err := s.StoreKeys(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if st.puts[k] != 1 {
			t.Fatalf("cold run: key Put %d times, want 1", st.puts[k])
		}
	}

	st.gets, st.puts = map[resultstore.Key]int{}, map[resultstore.Key]int{}
	if res := drain(); res.RowsCached != len(keys) {
		t.Fatalf("warm run: RowsCached = %d, want %d", res.RowsCached, len(keys))
	}
	for _, k := range keys {
		if st.gets[k] != 1 || st.puts[k] != 0 {
			t.Fatalf("warm run: key probed %d times and Put %d times, want 1 and 0", st.gets[k], st.puts[k])
		}
	}

	b, err := s.Bind(sc, nil, &ExecOptions{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := b.Hit(0)
	if !ok {
		t.Fatal("warm row 0 missed")
	}
	row.Cached = false // as if a worker sharing the store simulated it
	st.puts = map[resultstore.Key]int{}
	if _, err := b.Complete(row); err != nil {
		t.Fatal(err)
	}
	if st.puts[keys[0]] != 0 {
		t.Fatal("Complete rewrote a record the store already held")
	}

	if err := st.Put(resultstore.Record{Key: keys[0], Stamp: b.Stamp(), Payload: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Hit(0); ok {
		t.Fatal("a record with no point for the kind was served as a hit")
	}
	st.puts = map[resultstore.Key]int{}
	if res := drain(); res.RowsSimulated != 1 || st.puts[keys[0]] != 1 {
		t.Fatalf("damaged record: simulated %d rows and Put it %d times, want 1 and 1", res.RowsSimulated, st.puts[keys[0]])
	}
}
