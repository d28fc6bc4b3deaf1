package bench

import (
	"bytes"
	crand "crypto/rand"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/pairing"
)

// Open-loop load harness: drives a live cloud server (HTTP and net/rpc
// transports on loopback) with a configurable mix of fetch / fetch-component
// / store / delete / re-encrypt-batch / revoke traffic from a simulated
// population, at fixed offered rates with exponential inter-arrivals.
// Latency is measured from each request's *scheduled* arrival, so queueing
// delay when the server falls behind is charged to the requests (no
// coordinated omission), and recorded into the same log-bucketed histograms
// the server's /metrics endpoint exposes.

// Operation names of the load mix. "reencrypt" submits a revocation as one
// item per ciphertext, streamed through the server's window; "revoke"
// submits it as a single item.
const (
	loadOpFetch          = "fetch"
	loadOpFetchComponent = "fetch_component"
	loadOpStore          = "store"
	loadOpDelete         = "delete"
	loadOpReEncrypt      = "reencrypt"
	loadOpRevoke         = "revoke"
)

// LoadMix weights the operations of the traffic mix. Zero-weight (or absent)
// operations are never issued.
type LoadMix map[string]int

// DefaultLoadMix is a read-mostly serving mix with a steady trickle of
// churn and revocation traffic.
func DefaultLoadMix() LoadMix {
	return LoadMix{
		loadOpFetch:          45,
		loadOpFetchComponent: 25,
		loadOpStore:          12,
		loadOpDelete:         8,
		loadOpReEncrypt:      6,
		loadOpRevoke:         4,
	}
}

// LoadSpec configures one load run.
type LoadSpec struct {
	// Params selects the pairing group; Rnd supplies setup randomness.
	Params *pairing.Params
	Rnd    io.Reader
	// Owners / Users / RecordsPerOwner size the simulated population.
	Owners, Users, RecordsPerOwner int
	// Duration is the open-loop driving time per point.
	Duration time.Duration
	// Rates are the offered rates (ops/sec) of the saturation sweep.
	Rates []float64
	// Transports lists the transports to sweep ("rpc", "http").
	Transports []string
	// Procs, when non-empty, additionally sweeps GOMAXPROCS at the highest
	// offered rate. Client and server share the process, so a proc point
	// bounds the whole serving stack, not the server alone.
	Procs []int
	// Mix weights the operations (nil = DefaultLoadMix).
	Mix LoadMix
	// Window sets the server's re-encryption window for the run
	// (SetBatchWindow; 0 = unwindowed).
	Window int
	// InFlight bounds concurrently executing requests; arrivals past the
	// bound are shed (counted, not queued) to keep the generator open-loop.
	InFlight int
	// Seed feeds the arrival/op-choice generator, so runs are reproducible.
	Seed int64
}

func (s *LoadSpec) fillDefaults() {
	if s.Params == nil {
		s.Params = pairing.Default()
	}
	if s.Rnd == nil {
		s.Rnd = crand.Reader
	}
	if s.Owners <= 0 {
		s.Owners = 4
	}
	if s.Users <= 0 {
		s.Users = 8
	}
	if s.RecordsPerOwner <= 0 {
		s.RecordsPerOwner = 6
	}
	if s.Duration <= 0 {
		s.Duration = 2 * time.Second
	}
	if len(s.Rates) == 0 {
		s.Rates = []float64{25, 50, 100, 200}
	}
	if len(s.Transports) == 0 {
		s.Transports = []string{"rpc", "http"}
	}
	if s.Mix == nil {
		s.Mix = DefaultLoadMix()
	}
	if s.InFlight <= 0 {
		s.InFlight = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// LoadOpStats is one operation's outcome at one load point. Quantiles are in
// seconds, estimated from the log-bucketed histogram (Hist carries the full
// cumulative bucket layout for re-analysis).
type LoadOpStats struct {
	Ops     uint64                  `json:"ops"`
	Errors  uint64                  `json:"errors,omitempty"`
	Skipped uint64                  `json:"skipped,omitempty"`
	P50     float64                 `json:"p50_s"`
	P90     float64                 `json:"p90_s"`
	P99     float64                 `json:"p99_s"`
	P999    float64                 `json:"p999_s"`
	MeanS   float64                 `json:"mean_s"`
	Hist    cloud.HistogramSnapshot `json:"hist"`
}

// LoadRatePoint is one (transport, offered rate) cell of the saturation
// sweep. Achieved counts completed operations (success or error) per second
// of wall time; Shed counts arrivals dropped at the in-flight bound.
type LoadRatePoint struct {
	Transport      string                 `json:"transport"`
	OfferedPerSec  float64                `json:"offered_per_sec"`
	AchievedPerSec float64                `json:"achieved_per_sec"`
	WallNs         int64                  `json:"wall_ns"`
	Shed           uint64                 `json:"shed,omitempty"`
	Ops            map[string]LoadOpStats `json:"ops"`
}

// LoadProcPoint is one GOMAXPROCS cell: the highest offered rate re-driven
// under a different processor budget.
type LoadProcPoint struct {
	Transport      string  `json:"transport"`
	Procs          int     `json:"procs"`
	OfferedPerSec  float64 `json:"offered_per_sec"`
	AchievedPerSec float64 `json:"achieved_per_sec"`
	P99FetchS      float64 `json:"p99_fetch_s"`
}

// LoadReport is the machine-readable result of MeasureLoad, written to
// BENCH_load.json.
type LoadReport struct {
	GOMAXPROCS      int             `json:"gomaxprocs"`
	RBits           int             `json:"r_bits"`
	QBits           int             `json:"q_bits"`
	Owners          int             `json:"owners"`
	Users           int             `json:"users"`
	RecordsPerOwner int             `json:"records_per_owner"`
	DurationNs      int64           `json:"duration_ns"`
	InFlight        int             `json:"in_flight"`
	Window          int             `json:"window"`
	Mix             LoadMix         `json:"mix"`
	Points          []LoadRatePoint `json:"points"`
	ProcPoints      []LoadProcPoint `json:"proc_points,omitempty"`
}

// loadOwner is one simulated data owner: durable records serving the fetch
// traffic, a pre-minted churn record template the store/delete churn reuses
// (so the harness measures the serving path, not client-side encryption),
// and a dedicated revocation authority so concurrent revocations of
// different owners never contend on authority version state.
type loadOwner struct {
	id       string
	client   *cloud.OwnerClient
	aa       *core.AA
	durable  []string
	tmpl     *cloud.Record
	httpTmpl []cloud.HTTPComponent
	seq      atomic.Uint64
	// deletable queues churn record IDs between store and delete ops;
	// an empty pop marks the delete skipped rather than blocking.
	deletable chan string
	// revMu serializes this owner's rekey → update-info → submit cycle;
	// the dedicated authority is touched only under it.
	revMu sync.Mutex
}

type loadPopulation struct {
	env    *cloud.Env
	owners []*loadOwner
	users  []string
}

// aidForOwner names owner k's dedicated revocation authority. The shared
// "churn" authority is never rekeyed: churn records encrypt under it alone,
// so revocations skip them (nil update info) and store/delete churn never
// conflicts with re-encryption commits.
func aidForOwner(k int) string { return fmt.Sprintf("load-aa-%02d", k) }

const churnAID = "churn"

func buildLoadPopulation(spec LoadSpec) (*loadPopulation, error) {
	sys := core.NewSystem(spec.Params)
	env := cloud.NewEnvWithStore(sys, spec.Rnd, nil)
	if _, err := env.AddAuthority(churnAID, []string{"blob"}); err != nil {
		return nil, err
	}
	for k := 0; k < spec.Owners; k++ {
		if _, err := env.AddAuthority(aidForOwner(k), []string{"read"}); err != nil {
			return nil, err
		}
	}
	pop := &loadPopulation{env: env}
	for u := 0; u < spec.Users; u++ {
		pop.users = append(pop.users, fmt.Sprintf("load-user-%02d", u))
	}
	for k := 0; k < spec.Owners; k++ {
		oc, err := env.AddOwner(fmt.Sprintf("load-owner-%02d", k))
		if err != nil {
			return nil, err
		}
		auth, ok := env.Authority(aidForOwner(k))
		if !ok {
			return nil, fmt.Errorf("bench: authority %q not deployed", aidForOwner(k))
		}
		o := &loadOwner{
			id:        oc.Owner.ID(),
			client:    oc,
			aa:        auth.AA,
			deletable: make(chan string, 4096),
		}
		policy := aidForOwner(k) + ":read"
		for i := 0; i < spec.RecordsPerOwner; i++ {
			id := fmt.Sprintf("%s-rec-%03d", o.id, i)
			if _, err := oc.Upload(id, []cloud.UploadComponent{
				{Label: "data", Data: []byte(fmt.Sprintf("payload of %s", id)), Policy: policy},
				{Label: "meta", Data: []byte("created by the load harness"), Policy: policy},
			}); err != nil {
				return nil, err
			}
			o.durable = append(o.durable, id)
		}
		tmpl, err := oc.Upload(o.id+"-churn-template", []cloud.UploadComponent{
			{Label: "blob", Data: []byte("churn payload"), Policy: churnAID + ":blob"},
		})
		if err != nil {
			return nil, err
		}
		o.tmpl = tmpl
		for _, c := range tmpl.Components {
			o.httpTmpl = append(o.httpTmpl, cloud.HTTPComponent{
				Label:  c.Label,
				CT:     base64.StdEncoding.EncodeToString(c.CT.Marshal()),
				Sealed: base64.StdEncoding.EncodeToString(c.Sealed),
			})
		}
		// Pre-seed the delete queue so delete traffic flows from the start.
		for i := 0; i < 16; i++ {
			id := fmt.Sprintf("%s-churn-%06d", o.id, o.seq.Add(1))
			if err := env.Server.Store(&cloud.Record{ID: id, OwnerID: o.id, Components: tmpl.Components}); err != nil {
				return nil, err
			}
			o.deletable <- id
		}
		pop.owners = append(pop.owners, o)
	}
	return pop, nil
}

// loadClient is the transport seam: one implementation per wire protocol,
// same operations.
type loadClient interface {
	fetch(recordID, user string) error
	fetchComponent(recordID, label, user string) error
	store(o *loadOwner, recordID string) error
	remove(recordID, ownerID string) error
	ownerCiphertexts(ownerID string) ([]*core.Ciphertext, error)
	reencrypt(ownerID string, items []cloud.ReEncryptItem) error
	close() error
}

// rpcLoadClient fans calls over a small pool of net/rpc connections (one
// connection serializes encoding; a pool keeps the wire from being the
// bottleneck before the server is).
type rpcLoadClient struct {
	conns []*cloud.RemoteServer
	next  atomic.Uint64
}

func newRPCLoadClient(sys *core.System, addr string, conns int) (*rpcLoadClient, error) {
	c := &rpcLoadClient{}
	for i := 0; i < conns; i++ {
		rs, err := cloud.DialServer(sys, addr)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, rs)
	}
	return c, nil
}

func (c *rpcLoadClient) conn() *cloud.RemoteServer {
	return c.conns[c.next.Add(1)%uint64(len(c.conns))]
}

func (c *rpcLoadClient) fetch(recordID, user string) error {
	_, err := c.conn().FetchAs(recordID, user)
	return err
}

func (c *rpcLoadClient) fetchComponent(recordID, label, user string) error {
	_, err := c.conn().FetchComponentAs(recordID, label, user)
	return err
}

func (c *rpcLoadClient) store(o *loadOwner, recordID string) error {
	return c.conn().Store(&cloud.Record{ID: recordID, OwnerID: o.id, Components: o.tmpl.Components})
}

func (c *rpcLoadClient) remove(recordID, ownerID string) error {
	return c.conn().Delete(recordID, ownerID)
}

func (c *rpcLoadClient) ownerCiphertexts(ownerID string) ([]*core.Ciphertext, error) {
	return c.conn().CiphertextsOf(ownerID)
}

func (c *rpcLoadClient) reencrypt(ownerID string, items []cloud.ReEncryptItem) error {
	_, err := c.conn().ReEncrypt(ownerID, items)
	return err
}

func (c *rpcLoadClient) close() error {
	var first error
	for _, rs := range c.conns {
		if err := rs.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// httpLoadClient speaks the JSON gateway. net/http pools connections
// internally; responses are fully drained so keep-alive reuse works. It
// keeps the system params to decode ciphertext listings (on the wire they
// are opaque base64; the params travel out of band at setup, as on RPC).
type httpLoadClient struct {
	base string
	hc   *http.Client
	sys  *core.System
}

func newHTTPLoadClient(sys *core.System, addr string) *httpLoadClient {
	return &httpLoadClient{
		base: "http://" + addr,
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		sys:  sys,
	}
}

// do issues one request and decodes the JSON response into out (nil = body
// discarded after the status check).
func (c *httpLoadClient) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
		rd = &buf
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("bench: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *httpLoadClient) fetch(recordID, user string) error {
	var rec cloud.HTTPRecord
	return c.do(http.MethodGet, "/records/"+url.PathEscape(recordID)+"?user="+url.QueryEscape(user), nil, &rec)
}

func (c *httpLoadClient) fetchComponent(recordID, label, user string) error {
	var comp cloud.HTTPComponent
	return c.do(http.MethodGet,
		"/records/"+url.PathEscape(recordID)+"/"+url.PathEscape(label)+"?user="+url.QueryEscape(user), nil, &comp)
}

func (c *httpLoadClient) store(o *loadOwner, recordID string) error {
	return c.do(http.MethodPost, "/records",
		cloud.HTTPRecord{ID: recordID, OwnerID: o.id, Components: o.httpTmpl}, nil)
}

func (c *httpLoadClient) remove(recordID, ownerID string) error {
	return c.do(http.MethodDelete, "/records/"+url.PathEscape(recordID)+"?owner="+url.QueryEscape(ownerID), nil, nil)
}

func (c *httpLoadClient) ownerCiphertexts(ownerID string) ([]*core.Ciphertext, error) {
	var resp struct {
		Ciphertexts []string `json:"ciphertexts"`
	}
	if err := c.do(http.MethodGet, "/owners/"+url.PathEscape(ownerID)+"/ciphertexts", nil, &resp); err != nil {
		return nil, err
	}
	out := make([]*core.Ciphertext, 0, len(resp.Ciphertexts))
	for i, enc := range resp.Ciphertexts {
		raw, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			return nil, fmt.Errorf("bench: ciphertext %d: %w", i, err)
		}
		ct, err := core.UnmarshalCiphertext(c.sys.Params, raw)
		if err != nil {
			return nil, fmt.Errorf("bench: ciphertext %d: %w", i, err)
		}
		out = append(out, ct)
	}
	return out, nil
}

func (c *httpLoadClient) reencrypt(ownerID string, items []cloud.ReEncryptItem) error {
	var req cloud.HTTPBatchReEncryptRequest
	for _, it := range items {
		item := cloud.HTTPReEncryptRequest{UpdateKey: base64.StdEncoding.EncodeToString(it.UK.Marshal())}
		for _, ui := range it.UIs {
			item.UpdateInfos = append(item.UpdateInfos, base64.StdEncoding.EncodeToString(ui.Marshal()))
		}
		req.Items = append(req.Items, item)
	}
	var resp cloud.HTTPBatchReEncryptResponse
	return c.do(http.MethodPost, "/owners/"+url.PathEscape(ownerID)+"/reencrypt/batch", req, &resp)
}

func (c *httpLoadClient) close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// loadTransport names a client for reporting.
type loadTransport struct {
	name   string
	client loadClient
}

// revocationInputs runs the owner-side half of a revocation for owner o:
// rekey its dedicated authority, derive the owner's update key and the
// per-ciphertext update information over the owner's *current* server-side
// ciphertexts. Caller holds o.revMu.
func (t *loadTransport) revocationInputs(o *loadOwner, rnd io.Reader) (*core.UpdateKey, map[string]*core.UpdateInfo, error) {
	fromV, _, err := o.aa.Rekey(rnd)
	if err != nil {
		return nil, nil, err
	}
	uk, err := o.aa.UpdateKeyFor(o.client.Owner.SecretKeyForAAs(), fromV)
	if err != nil {
		return nil, nil, err
	}
	cts, err := t.client.ownerCiphertexts(o.id)
	if err != nil {
		return nil, nil, err
	}
	uiList, err := o.client.Owner.RevocationUpdate(uk, cts)
	if err != nil {
		return nil, nil, err
	}
	uis := make(map[string]*core.UpdateInfo)
	for i, ui := range uiList {
		if ui != nil {
			uis[cts[i].ID] = ui
		}
	}
	if len(uis) == 0 {
		return nil, nil, fmt.Errorf("bench: revocation of %s affected no ciphertexts", o.id)
	}
	return uk, uis, nil
}

// opPicker draws operations according to the mix weights.
type opPicker struct {
	ops []string
	cum []int
	sum int
}

func newOpPicker(mix LoadMix) (*opPicker, error) {
	p := &opPicker{}
	names := make([]string, 0, len(mix))
	for op := range mix {
		names = append(names, op)
	}
	sort.Strings(names)
	valid := map[string]bool{
		loadOpFetch: true, loadOpFetchComponent: true, loadOpStore: true,
		loadOpDelete: true, loadOpReEncrypt: true, loadOpRevoke: true,
	}
	for _, op := range names {
		w := mix[op]
		if !valid[op] {
			return nil, fmt.Errorf("bench: unknown load op %q in mix", op)
		}
		if w < 0 {
			return nil, fmt.Errorf("bench: negative weight for load op %q", op)
		}
		if w == 0 {
			continue
		}
		p.sum += w
		p.ops = append(p.ops, op)
		p.cum = append(p.cum, p.sum)
	}
	if p.sum == 0 {
		return nil, fmt.Errorf("bench: load mix has no positive weights")
	}
	return p, nil
}

func (p *opPicker) pick(r int) string {
	r = r % p.sum
	for i, c := range p.cum {
		if r < c {
			return p.ops[i]
		}
	}
	return p.ops[len(p.ops)-1]
}

// pointCounters aggregates one load point.
type pointCounters struct {
	hists   map[string]*cloud.LatencyHistogram
	ops     map[string]*atomic.Uint64
	errs    map[string]*atomic.Uint64
	skipped map[string]*atomic.Uint64
	shed    atomic.Uint64
}

func newPointCounters(ops []string) *pointCounters {
	c := &pointCounters{
		hists:   make(map[string]*cloud.LatencyHistogram),
		ops:     make(map[string]*atomic.Uint64),
		errs:    make(map[string]*atomic.Uint64),
		skipped: make(map[string]*atomic.Uint64),
	}
	for _, op := range ops {
		c.hists[op] = &cloud.LatencyHistogram{}
		c.ops[op] = &atomic.Uint64{}
		c.errs[op] = &atomic.Uint64{}
		c.skipped[op] = &atomic.Uint64{}
	}
	return c
}

// runLoadPoint drives one (transport, rate) cell: an open-loop dispatcher
// draws exponential inter-arrival gaps, picks an operation per the mix, and
// hands it to a bounded worker pool. Arrivals finding every worker slot busy
// are shed (the open-loop promise: the generator never slows down to the
// server's pace — the latency tail and the shed count carry the overload
// signal instead).
func runLoadPoint(pop *loadPopulation, t *loadTransport, spec LoadSpec, rate float64, rng *rand.Rand, setupRnd io.Reader) LoadRatePoint {
	picker, err := newOpPicker(spec.Mix)
	if err != nil {
		// Mix validation happens in MeasureLoad; this is unreachable there.
		panic(err)
	}
	counters := newPointCounters(picker.ops)
	sem := make(chan struct{}, spec.InFlight)
	var wg sync.WaitGroup

	start := time.Now()
	deadline := start.Add(spec.Duration)
	next := start
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		next = next.Add(gap)
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		op := picker.pick(rng.Intn(picker.sum))
		draw := rng.Uint64()
		select {
		case sem <- struct{}{}:
		default:
			counters.shed.Add(1)
			continue
		}
		wg.Add(1)
		go func(op string, arrival time.Time, draw uint64) {
			defer wg.Done()
			defer func() { <-sem }()
			skipped, err := executeLoadOp(pop, t, op, draw, setupRnd)
			switch {
			case skipped:
				counters.skipped[op].Add(1)
			case err != nil:
				counters.errs[op].Add(1)
			default:
				counters.ops[op].Add(1)
				counters.hists[op].Observe(time.Since(arrival))
			}
		}(op, next, draw)
	}
	wg.Wait()
	wall := time.Since(start)

	point := LoadRatePoint{
		Transport:     t.name,
		OfferedPerSec: rate,
		WallNs:        wall.Nanoseconds(),
		Shed:          counters.shed.Load(),
		Ops:           make(map[string]LoadOpStats, len(picker.ops)),
	}
	var completed uint64
	for _, op := range picker.ops {
		snap := counters.hists[op].Snapshot()
		stats := LoadOpStats{
			Ops:     counters.ops[op].Load(),
			Errors:  counters.errs[op].Load(),
			Skipped: counters.skipped[op].Load(),
			P50:     snap.Quantile(0.50),
			P90:     snap.Quantile(0.90),
			P99:     snap.Quantile(0.99),
			P999:    snap.Quantile(0.999),
			MeanS:   snap.Mean(),
			Hist:    snap,
		}
		completed += stats.Ops + stats.Errors
		point.Ops[op] = stats
	}
	point.AchievedPerSec = float64(completed) / wall.Seconds()
	return point
}

// executeLoadOp performs one operation against the transport. The draw
// parameter carries the dispatcher's randomness (workers must not share the
// dispatcher's rng). Returns skipped=true when the op had nothing to do
// (delete with an empty churn queue).
func executeLoadOp(pop *loadPopulation, t *loadTransport, op string, draw uint64, rnd io.Reader) (skipped bool, err error) {
	o := pop.owners[int(draw%uint64(len(pop.owners)))]
	user := pop.users[int(draw>>16)%len(pop.users)]
	switch op {
	case loadOpFetch:
		rec := o.durable[int(draw>>32)%len(o.durable)]
		return false, t.client.fetch(rec, user)
	case loadOpFetchComponent:
		rec := o.durable[int(draw>>32)%len(o.durable)]
		return false, t.client.fetchComponent(rec, "data", user)
	case loadOpStore:
		id := fmt.Sprintf("%s-churn-%06d", o.id, o.seq.Add(1))
		if err := t.client.store(o, id); err != nil {
			return false, err
		}
		select {
		case o.deletable <- id:
		default: // queue full: the record simply stays stored
		}
		return false, nil
	case loadOpDelete:
		select {
		case id := <-o.deletable:
			return false, t.client.remove(id, o.id)
		default:
			return true, nil
		}
	case loadOpReEncrypt, loadOpRevoke:
		o.revMu.Lock()
		defer o.revMu.Unlock()
		uk, uis, err := t.revocationInputs(o, rnd)
		if err != nil {
			return false, err
		}
		if op == loadOpRevoke {
			return false, t.client.reencrypt(o.id, []cloud.ReEncryptItem{{UK: uk, UIs: uis}})
		}
		items := make([]cloud.ReEncryptItem, 0, len(uis))
		ids := make([]string, 0, len(uis))
		for id := range uis {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			items = append(items, cloud.ReEncryptItem{UK: uk, UIs: map[string]*core.UpdateInfo{id: uis[id]}})
		}
		return false, t.client.reencrypt(o.id, items)
	default:
		return false, fmt.Errorf("bench: unknown load op %q", op)
	}
}

// MeasureLoad builds the population, starts a live server on both
// transports (loopback), and sweeps offered rate per transport — then, if
// requested, GOMAXPROCS at the highest rate. One server instance serves
// every point, so later points run against the accumulated state of earlier
// ones (as a production server would).
func MeasureLoad(spec LoadSpec) (*LoadReport, error) {
	spec.fillDefaults()
	if _, err := newOpPicker(spec.Mix); err != nil {
		return nil, err
	}
	pop, err := buildLoadPopulation(spec)
	if err != nil {
		return nil, fmt.Errorf("load setup: %w", err)
	}
	pop.env.Server.SetBatchWindow(spec.Window)

	rpcLn, rpcAddr, err := cloud.ServeRPC(pop.env.Sys, pop.env.Server, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer rpcLn.Close()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hsrv := &http.Server{Handler: cloud.NewHTTPHandler(pop.env.Sys, pop.env.Server)}
	go hsrv.Serve(httpLn)
	defer hsrv.Close()
	httpAddr := httpLn.Addr().String()

	newTransport := func(name string) (*loadTransport, error) {
		switch name {
		case "rpc":
			c, err := newRPCLoadClient(pop.env.Sys, rpcAddr, 4)
			if err != nil {
				return nil, err
			}
			return &loadTransport{name: name, client: c}, nil
		case "http":
			return &loadTransport{name: name, client: newHTTPLoadClient(pop.env.Sys, httpAddr)}, nil
		default:
			return nil, fmt.Errorf("bench: unknown transport %q (valid: rpc, http)", name)
		}
	}

	report := &LoadReport{
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		RBits:           spec.Params.R.BitLen(),
		QBits:           spec.Params.Q.BitLen(),
		Owners:          spec.Owners,
		Users:           spec.Users,
		RecordsPerOwner: spec.RecordsPerOwner,
		DurationNs:      spec.Duration.Nanoseconds(),
		InFlight:        spec.InFlight,
		Window:          spec.Window,
		Mix:             spec.Mix,
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for _, tr := range spec.Transports {
		t, err := newTransport(tr)
		if err != nil {
			return nil, err
		}
		for _, rate := range spec.Rates {
			if rate <= 0 {
				t.client.close()
				return nil, fmt.Errorf("bench: offered rate must be positive, got %g", rate)
			}
			report.Points = append(report.Points, runLoadPoint(pop, t, spec, rate, rng, spec.Rnd))
		}
		t.client.close()
	}

	if len(spec.Procs) > 0 {
		maxRate := spec.Rates[0]
		for _, r := range spec.Rates {
			if r > maxRate {
				maxRate = r
			}
		}
		orig := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(orig)
		for _, p := range spec.Procs {
			if p <= 0 {
				return nil, fmt.Errorf("bench: GOMAXPROCS point must be positive, got %d", p)
			}
			runtime.GOMAXPROCS(p)
			for _, tr := range spec.Transports {
				t, err := newTransport(tr)
				if err != nil {
					return nil, err
				}
				pt := runLoadPoint(pop, t, spec, maxRate, rng, spec.Rnd)
				t.client.close()
				report.ProcPoints = append(report.ProcPoints, LoadProcPoint{
					Transport:      tr,
					Procs:          p,
					OfferedPerSec:  maxRate,
					AchievedPerSec: pt.AchievedPerSec,
					P99FetchS:      pt.Ops[loadOpFetch].P99,
				})
			}
		}
		runtime.GOMAXPROCS(orig)
	}
	return report, nil
}

// WriteJSON writes the report as indented JSON.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render prints human-readable saturation tables.
func (r *LoadReport) Render(w io.Writer) {
	fmt.Fprintf(w, "open-loop load — GOMAXPROCS=%d, |r|=%d bits, %d owners × %d records, %d users, %.1fs/point\n",
		r.GOMAXPROCS, r.RBits, r.Owners, r.RecordsPerOwner, r.Users, time.Duration(r.DurationNs).Seconds())
	fmt.Fprintf(w, "%-6s %10s %10s %8s %10s %10s %10s %10s\n",
		"trans", "offered/s", "achieved/s", "shed", "fetch p50", "fetch p99", "store p99", "reenc p99")
	ms := func(s float64) string {
		if s == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fms", s*1e3)
	}
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%-6s %10.1f %10.1f %8d %10s %10s %10s %10s\n",
			pt.Transport, pt.OfferedPerSec, pt.AchievedPerSec, pt.Shed,
			ms(pt.Ops[loadOpFetch].P50), ms(pt.Ops[loadOpFetch].P99),
			ms(pt.Ops[loadOpStore].P99), ms(pt.Ops[loadOpReEncrypt].P99))
	}
	if len(r.ProcPoints) > 0 {
		fmt.Fprintf(w, "GOMAXPROCS sweep at %.1f offered ops/s:\n", r.ProcPoints[0].OfferedPerSec)
		fmt.Fprintf(w, "%-6s %6s %10s %10s\n", "trans", "procs", "achieved/s", "fetch p99")
		for _, pt := range r.ProcPoints {
			fmt.Fprintf(w, "%-6s %6d %10.1f %10s\n", pt.Transport, pt.Procs, pt.AchievedPerSec, ms(pt.P99FetchS))
		}
	}
}
