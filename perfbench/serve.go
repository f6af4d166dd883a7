package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mithril/internal/expspec"
)

// refs maps a row's cell identity to its canonical reference bytes.
type refs map[string]string

// rowIdentity keys a decoded row by its kind and identity fields.
func rowIdentity(kind expspec.Kind, row map[string]any) string {
	var b strings.Builder
	b.WriteString(string(kind))
	for _, f := range identity[kind] {
		fmt.Fprintf(&b, "|%s=%v", f, row[f])
	}
	return b.String()
}

// canonical re-encodes a decoded row without its grid position.
func canonical(row map[string]any) string {
	delete(row, "row")
	data, err := json.Marshal(row)
	if err != nil {
		return fmt.Sprintf("unencodable row: %v", err)
	}
	return string(data)
}

func decodeUseNumber(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// mixTemplate is a warmed store plus the reference rows of every cell a
// serve-mix request can name.
type mixTemplate struct {
	store string
	refs  refs
}

// ensureTemplate builds (or reuses, per seed and binary) the serve-mix
// store template: the template grids run once through `mithrilsim run
// -store`. Their JSON rows are the references every served hit row must
// equal; the miss rows are checked after the drive (checkMisses).
func ensureTemplate(ctx context.Context, b *bench, plan *mixPlan) (*mixTemplate, error) {
	dir := filepath.Join(b.cache, fmt.Sprintf("mix-%d-%s", b.seed, b.binHash))
	t := &mixTemplate{store: filepath.Join(dir, "store"), refs: refs{}}
	if data, err := os.ReadFile(filepath.Join(dir, "refs.json")); err == nil {
		if err := json.Unmarshal(data, &t.refs); err == nil {
			return t, nil
		}
	}
	build, err := os.MkdirTemp(b.work, "template-")
	if err != nil {
		return nil, err
	}
	for _, sp := range plan.templates() {
		path := filepath.Join(build, sp.Name+".json")
		if err := os.WriteFile(path, specDoc(sp), 0o644); err != nil {
			return nil, err
		}
		r, err := runCLI(ctx, b.bin, "run", path, "-format", "json", "-jobs", fmt.Sprint(b.nproc), "-store", filepath.Join(build, "store"))
		if err != nil {
			return nil, fmt.Errorf("building the store template: %w", err)
		}
		var doc sweepOutput
		if err := decodeUseNumber(r.stdout, &doc); err != nil {
			return nil, fmt.Errorf("template %s: %w", sp.Name, err)
		}
		want, err := expectedRows(sp)
		if err != nil {
			return nil, err
		}
		if len(doc.Rows) != want {
			return nil, fmt.Errorf("template %s: %d rows, grid has %d", sp.Name, len(doc.Rows), want)
		}
		for _, row := range doc.Rows {
			t.refs[rowIdentity(sp.Kind, row)] = canonical(row)
		}
	}
	data, err := json.Marshal(t.refs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(build, "refs.json"), data, 0o644); err != nil {
		return nil, err
	}
	_ = os.RemoveAll(dir)
	if err := os.Rename(build, dir); err != nil {
		return nil, err
	}
	return t, nil
}

// freshStore copies the template store into the run's scratch space.
func freshStore(b *bench, t *mixTemplate) (string, error) {
	dst, err := os.MkdirTemp(b.work, "store-")
	if err != nil {
		return "", err
	}
	return dst, copyDir(dst, t.store)
}

// mixResult gathers what a drive observed.
type mixResult struct {
	ttfb      []float64 // ms, request sent until the response header
	stream    []float64 // ms, response header until the summary record
	end       time.Time // when the client finished, before the checks
	rows      int
	cached    int
	simulated int
	errors    int // refused or failed requests
	attempted int
	problems  []error
	// Bodies are checked after the drive, once per distinct body: sent
	// holds each completed request with its body's SHA-256, bodies the
	// first body seen for each hash with the request that got it. The
	// clients spend no CPU on checks while the server is timed.
	sent   []sentMix
	bodies map[[sha256.Size]byte]pendingBody
	misses []servedMiss // checked after the drive (checkMisses)
}

// sentMix is one completed request and, once checked, its verdict.
type sentMix struct {
	k    int
	rows int     // the grid size its summary must report
	ms   float64 // sent until its summary record arrived
	sum  [sha256.Size]byte
	ok   bool // passed its checks
}

// pendingBody is a distinct response body and the request that got it.
type pendingBody struct {
	body []byte
	req  mixRequest
}

// mixSummary is a response's terminal summary record.
type mixSummary struct{ Rows, Cached, Simulated int }

// servedMiss is the row a miss request was served.
type servedMiss struct {
	k    int
	seed uint64
	id   string // cell identity
	got  string // canonical row
}

// mixRequest is one generated request.
type mixRequest struct {
	k    int
	sp   *expspec.Spec
	doc  []byte
	rows int
	miss bool // names a cell that is not in the store
}

func (p *mixPlan) build(k int) (mixRequest, error) {
	sp := p.request(k)
	rows, err := expectedRows(sp)
	_, miss := p.miss(k)
	return mixRequest{k: k, sp: sp, doc: specDoc(sp), rows: rows, miss: miss}, err
}

// driveMix runs one closed-loop client against url until requests
// 0..count-1 have been sent and, unless deadline is zero, the deadline
// has passed. It sends each request only after the previous reply's
// summary record arrived, so one request is in flight and the program
// works on one core at a time: the shared host this benchmark runs on
// gives a second busy thread anything from a whole core to none (see
// README.md, Noise). With spans non-nil every request is recorded as a
// span split at its response header. Once the client stops (res.end),
// every response is checked.
func driveMix(ctx context.Context, next func(k int) (mixRequest, error), ref refs, url string, deadline time.Time, count int, spans *spanLog, parent int) *mixResult {
	res := &mixResult{bodies: map[[sha256.Size]byte]pendingBody{}}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for k := 0; ctx.Err() == nil && (k < count || (!deadline.IsZero() && time.Now().Before(deadline))); k++ {
		req, err := next(k)
		if err != nil {
			res.attempted++
			res.errors++
			res.problems = append(res.problems, err)
			continue
		}
		sendMix(ctx, client, url, req, res, spans, parent)
	}
	res.end = time.Now()
	res.check(ref)
	return res
}

// check decodes each distinct body once and settles every sent request:
// it fails when its body does not check or its summary's row count is
// not its grid size.
func (r *mixResult) check(ref refs) {
	type outcome struct {
		summary mixSummary
		err     error
	}
	outcomes := make(map[[sha256.Size]byte]outcome, len(r.bodies))
	for sum, p := range r.bodies {
		summary, miss, err := checkStream(p.body, p.req, ref)
		if err != nil {
			err = fmt.Errorf("request %d (%s): %w", p.req.k, p.req.sp.Name, err)
		}
		outcomes[sum] = outcome{summary, err}
		if miss != nil {
			r.misses = append(r.misses, *miss)
		}
	}
	r.bodies = nil
	for i := range r.sent {
		s := &r.sent[i]
		o := outcomes[s.sum]
		r.attempted++
		switch {
		case o.err != nil:
			r.errors++
			r.problems = append(r.problems, o.err)
		case o.summary.Rows != s.rows:
			r.errors++
			r.problems = append(r.problems, fmt.Errorf("request %d: summary rows=%d, grid has %d", s.k, o.summary.Rows, s.rows))
		default:
			s.ok = true
			r.rows += o.summary.Rows
			r.cached += o.summary.Cached
			r.simulated += o.summary.Simulated
		}
	}
}

// sendMix posts one request, reads its NDJSON reply and keeps the body
// for mixResult.check.
func sendMix(ctx context.Context, client *http.Client, url string, req mixRequest, res *mixResult, spans *spanLog, parent int) {
	start := time.Now()
	fail := func(err error) {
		res.attempted++
		res.errors++
		res.problems = append(res.problems, fmt.Errorf("request %d (%s): %w", req.k, req.sp.Name, err))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/run", bytes.NewReader(req.doc))
	if err != nil {
		fail(err)
		return
	}
	resp, err := client.Do(hreq)
	if err != nil {
		fail(err)
		return
	}
	defer resp.Body.Close()
	header := time.Now()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fail(fmt.Errorf("status %d: %s", resp.StatusCode, tail(string(body))))
		return
	}
	// The summary is the stream's last record: the request ends when the
	// body does. Rows are checked after the drive.
	body, err := io.ReadAll(resp.Body)
	end := time.Now()
	if err != nil {
		fail(fmt.Errorf("reading the stream: %w", err))
		return
	}
	sum := sha256.Sum256(body)
	if spans != nil {
		id := spans.add(parent, "serveapi", "request", start, end)
		spans.add(id, "serveapi", "ttfb", start, header)
		spans.add(id, "serveapi", "stream", header, end)
	}
	res.ttfb = append(res.ttfb, ms(header.Sub(start)))
	res.stream = append(res.stream, ms(end.Sub(header)))
	res.sent = append(res.sent, sentMix{k: req.k, rows: req.rows, ms: ms(end.Sub(start)), sum: sum})
	if _, ok := res.bodies[sum]; !ok {
		res.bodies[sum] = pendingBody{body: body, req: req}
	}
}

// checkStream decodes one NDJSON reply. Every row must be safe where it
// names a mithril scheme, a hit row must equal its reference, the stream
// must end in a summary record, and the streamed row count must equal
// the grid size. A miss request's one row is returned for checkMisses.
func checkStream(body []byte, req mixRequest, ref refs) (mixSummary, *servedMiss, error) {
	var summary *mixSummary
	var miss *servedMiss
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := decodeUseNumber(sc.Bytes(), &rec); err != nil {
			return mixSummary{}, nil, fmt.Errorf("undecodable record: %w", err)
		}
		if s, ok := rec["summary"]; ok {
			data, _ := json.Marshal(s)
			summary = &mixSummary{}
			if err := json.Unmarshal(data, summary); err != nil {
				return mixSummary{}, nil, fmt.Errorf("summary record: %w", err)
			}
			break
		}
		if e, ok := rec["error"]; ok {
			return mixSummary{}, nil, fmt.Errorf("error record: %v", e)
		}
		rows++
		if err := checkSafe([]map[string]any{rec}); err != nil {
			return mixSummary{}, nil, err
		}
		id, got := rowIdentity(req.sp.Kind, rec), canonical(rec)
		if req.miss {
			miss = &servedMiss{k: req.k, seed: req.sp.Axes.Seeds[0], id: id, got: got}
			continue
		}
		if want, ok := ref[id]; !ok || got != want {
			return mixSummary{}, nil, fmt.Errorf("row %s differs from its reference %q", got, want)
		}
	}
	switch {
	case sc.Err() != nil:
		return mixSummary{}, nil, sc.Err()
	case summary == nil:
		return mixSummary{}, nil, fmt.Errorf("stream ended without a summary record")
	case rows != req.rows || (req.miss && rows != 1):
		return mixSummary{}, nil, fmt.Errorf("streamed %d rows, grid has %d", rows, req.rows)
	}
	return *summary, miss, nil
}

// checkMisses runs the drive's miss cells once through `mithrilsim run`
// without a store, after the timed phase, and requires every served miss
// row to equal its row there. A request whose row differs counts as
// failed.
func checkMisses(ctx context.Context, b *bench, p *mixPlan, res *mixResult) error {
	if len(res.misses) == 0 {
		return nil
	}
	seeds := make([]uint64, len(res.misses))
	for i, m := range res.misses {
		seeds[i] = m.seed
	}
	sp := p.missSpec(seeds)
	f, err := os.CreateTemp(b.work, "misses-*.json")
	if err != nil {
		return err
	}
	_, err = f.Write(specDoc(sp))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	r, err := runCLI(ctx, b.bin, "run", f.Name(), "-format", "json", "-jobs", fmt.Sprint(b.nproc))
	if err != nil {
		return fmt.Errorf("reference run of the miss cells: %w", err)
	}
	var doc sweepOutput
	if err := decodeUseNumber(r.stdout, &doc); err != nil {
		return fmt.Errorf("reference run of the miss cells: %w", err)
	}
	if len(doc.Rows) != len(seeds) {
		return fmt.Errorf("reference run of the miss cells: %d rows for %d cells", len(doc.Rows), len(seeds))
	}
	want := refs{}
	for _, row := range doc.Rows {
		want[rowIdentity(sp.Kind, row)] = canonical(row)
	}
	for _, m := range res.misses {
		if want[m.id] != m.got {
			res.errors++
			res.problems = append(res.problems, fmt.Errorf("request %d: miss row %s differs from its reference %q", m.k, m.got, want[m.id]))
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveSetupRuns is how many times the server is started for set-up
// time; the last start serves the timed phase.
const serveSetupRuns = 12

// startMixServer starts `mithrilsim serve -store` on a fresh copy of the
// template store, with one simulation job: only a miss simulates, one
// row at a time.
func startMixServer(ctx context.Context, b *bench, t *mixTemplate) (*server, error) {
	dir, err := freshStore(b, t)
	if err != nil {
		return nil, err
	}
	return startServer(ctx, b.bin, "-store", dir, "-jobs", "1")
}

// serveMix drives one closed-loop client posting generated
// golden-scale spec documents to one `mithrilsim serve -store` for the
// measuring time.
func serveMix(ctx context.Context, b *bench) error {
	plan := newMixPlan(b.seed)
	t, err := ensureTemplate(ctx, b, plan)
	if err != nil {
		return err
	}
	var setups []float64
	var srv *server
	for i := 0; i < serveSetupRuns; i++ {
		if srv, err = startMixServer(ctx, b, t); err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		if i < serveSetupRuns-1 {
			srv.stop()
		}
	}
	cpu0 := srv.cpu()
	stopRSS := sampleRSS([]*server{srv})
	start := time.Now()
	res := driveMix(ctx, plan.build, t.refs, srv.url, start.Add(b.seconds), 2*mixCycle, nil, 0)
	rss := stopRSS()
	cpu := srv.cpu() - cpu0
	_, peak := srv.stop()
	if err := checkMisses(ctx, b, plan, res); err != nil {
		return err
	}
	b.absorb(res)
	setDriveMetrics(b, setups, res, start, cpu, rss, peak, mixCycle, func(k int) (int, bool) {
		_, miss := plan.miss(k)
		return shape(k), !miss
	})
	b.note("rows=%d store-hit share=%.4f (cached=%d simulated=%d; %d miss requests)", res.rows, ratio(float64(res.cached), float64(res.rows)), res.cached, res.simulated, len(res.misses))
	return nil
}

// setDriveMetrics reports the end-to-end metrics of a closed-loop drive
// whose requests repeat a cycle of that many distinct requests; place
// maps request k to its place in the cycle, or false for a request
// outside it (a serve-mix miss). Only requests that passed their checks
// count. wall_s is the sum over the cycle of each request's median time,
// req_p50_ms the median over every request. Medians over hundreds to
// tens of thousands of requests hold better from run to run on a shared
// host than anything else tried (see README.md, Noise). Quartiles, p99,
// the fastest repeats, CPU time and memory go to the report.
func setDriveMetrics(b *bench, setups []float64, res *mixResult, start time.Time, cpu time.Duration, rss []float64, peakKB int64, cycle int, place func(k int) (int, bool)) {
	byPlace := make([][]float64, cycle)
	var lat []float64
	for _, s := range res.sent {
		if !s.ok {
			continue
		}
		lat = append(lat, s.ms)
		if i, ok := place(s.k); ok {
			byPlace[i] = append(byPlace[i], s.ms)
		}
	}
	var typical, fastest, repeats []float64
	for i, xs := range byPlace {
		if len(xs) == 0 {
			b.problem(fmt.Errorf("request %d of the cycle never completed", i))
			continue
		}
		typical = append(typical, median(xs))
		fastest = append(fastest, quantile(xs, 0))
		repeats = append(repeats, float64(len(xs)))
	}
	n := float64(len(lat))
	elapsed := res.end.Sub(start)
	b.set("setup_s", "s", median(setups))
	b.set("wall_s", "s", sum(typical)/1000)
	b.set("req_p50_ms", "ms", median(lat))
	b.note("requests=%d, a cycle of %d repeated %.0f to %.0f times; setup samples=%d q1=%.5f q3=%.5f",
		len(lat), cycle, quantile(repeats, 0), maxOf(repeats), len(setups), quantile(setups, 0.25), quantile(setups, 0.75))
	b.note("req_p50_ms q1=%.4f q3=%.4f; %s; req_per_s=%.2f; cycle wall as run %.4f s, at each request's fastest repeat %.4f s; program CPU %.4f s per cycle",
		quantile(lat, 0.25), quantile(lat, 0.75), p99Line("req_p99_ms", lat), n/elapsed.Seconds(),
		elapsed.Seconds()*float64(cycle)/n, sum(fastest)/1000, cpu.Seconds()*float64(cycle)/n)
	b.note("rss_mb=%.1f (resident set of the program's processes, %d samples every 100 ms, q1=%.1f q3=%.1f); peak RSS %.1f MB (largest process)",
		median(rss), len(rss), quantile(rss, 0.25), quantile(rss, 0.75), float64(peakKB)/1024)
}

// absorb counts a drive's requests as operations.
func (b *bench) absorb(res *mixResult) {
	b.attempted += res.attempted
	b.failed += res.errors
	for _, p := range res.problems {
		b.problem(p)
	}
}

// p99Line reports a p99 only when at least ten samples lie beyond it.
func p99Line(name string, xs []float64) string {
	beyond := len(xs) / 100
	if beyond < 10 {
		return fmt.Sprintf("%s: not reported (%d samples, %d beyond p99)", name, len(xs), beyond)
	}
	return fmt.Sprintf("%s=%.4f (%d samples, %d beyond)", name, quantile(xs, 0.99), len(xs), beyond)
}
