package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maacs/internal/cloud"
)

// Tracing records spans in memory around the benchmark's own calls into each
// layer's public functions: the client op, the core/hybrid/wire calls, the
// HTTP and net/rpc client calls, an http.Handler middleware around the
// gateway, a forwarding net/rpc receiver around cloud.ServerRPC, a
// cloud.Store wrapper around the FileStore, and the engine wall time the
// re-encrypt replies report. Nothing inside the program is instrumented.
//
// Client spans name their parent; HTTP server spans are linked to the client
// call through the X-Bench-Span header. Store spans cannot carry an ID
// through the server, and the RPC arguments have no field for one, so those
// are linked by op type: a store span belongs to the server span of a
// compatible route that contains it in time (see link).

// opKind is an operation type. kindNone marks spans of untimed correctness
// checks, which the anatomy leaves out.
type opKind uint8

const (
	kindNone opKind = iota
	kindRead
	kindFetchHTTP
	kindFetchRPC
	kindUpload
	kindDelete
	kindRevoke
	numKinds
)

var kindNames = [numKinds]string{"none", "read", "fetch_http", "fetch_rpc", "upload", "delete", "revoke"}

func (k opKind) String() string { return kindNames[k] }

// layer is a span's layer.
type layer uint8

const (
	layerWait layer = iota // loadgen: due time → start of execution
	layerOp                // the client op, from start of execution to completion
	layerWireDecode
	layerWireEncode
	layerCoreDecrypt
	layerCoreEncrypt
	layerCoreUpdateInfo
	layerCoreKeyUpdate
	layerHybridOpen
	layerHybridSeal
	layerHTTP
	layerRPC
	layerServerFetch
	layerServerUpload
	layerServerDelete
	layerServerScan
	layerServerReencrypt
	layerStoreGet
	layerStorePut
	layerStoreDelete
	layerStoreReplace
	layerStoreScan
	layerEngine
	numLayers
)

var layerNames = [numLayers]string{
	"loadgen.wait", "op", "wire.decode", "wire.encode", "core.decrypt", "core.encrypt",
	"core.update_info", "core.key_update", "hybrid.open", "hybrid.seal", "transport.http",
	"transport.rpc", "server.fetch", "server.upload", "server.delete", "server.scan",
	"server.reencrypt", "store.get", "store.put", "store.delete", "store.replace",
	"store.scan", "engine.reencrypt",
}

func (l layer) String() string { return layerNames[l] }

func isServer(l layer) bool { return l >= layerServerFetch && l <= layerServerReencrypt }

func isStore(l layer) bool { return l >= layerStoreGet && l <= layerStoreScan }

// span is one timed region. Start and End are nanoseconds since the tracer's
// epoch.
type span struct {
	ID, Parent uint64
	Kind       opKind
	Layer      layer
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects one traced pass's spans.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// at converts a wall-clock instant to the tracer's clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// opRun is one operation's trace context: the pass tracer (nil when tracing
// is off, so the same client code runs traced and untraced), the op type,
// and the op span's ID, which client-side layer spans name as their parent.
type opRun struct {
	tr   *tracer
	kind opKind
	id   uint64
	// after, when set by the op, is an untimed correctness check that runs
	// once the op's latency is recorded.
	after func() error
}

// untraced returns the context of set-up work and untimed checks, which
// record no spans.
func untraced() *opRun { return &opRun{} }

// layer runs f as one span of layer l under the op.
func (o *opRun) layer(l layer, f func() error) error {
	if o.tr == nil {
		return f()
	}
	start := o.tr.now()
	err := f()
	o.tr.add(span{ID: o.tr.newID(), Parent: o.id, Kind: o.kind, Layer: l, Start: start, End: o.tr.now()})
	return err
}

// traceSwitch is the tracer the server-side wrappers record into; nil while
// a pass is untraced.
type traceSwitch struct{ cur atomic.Pointer[tracer] }

// Header names the HTTP client uses to tell the middleware which op and
// client span a request belongs to.
const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// middleware records one server span per gateway request, typed by route.
func middleware(sw *traceSwitch, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := sw.cur.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		s := span{ID: t.newID(), Layer: routeLayer(r), Start: start, End: t.now()}
		if op := r.Header.Get(headerOp); op != "" {
			s.Parent, _ = strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
			for k, name := range kindNames {
				if name == op {
					s.Kind = opKind(k)
				}
			}
		}
		t.add(s)
	})
}

// routeLayer maps a gateway request to its server layer.
func routeLayer(r *http.Request) layer {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/records":
		return layerServerUpload
	case r.Method == http.MethodDelete:
		return layerServerDelete
	case strings.HasSuffix(r.URL.Path, "/ciphertexts"):
		return layerServerScan
	case strings.HasSuffix(r.URL.Path, "/reencrypt/batch"):
		return layerServerReencrypt
	default:
		return layerServerFetch
	}
}

// rpcReceiver forwards CloudServer.Fetch to cloud.ServerRPC and records a
// server span around it. Only the download workload calls RPC, so its spans
// are typed fetch_rpc.
type rpcReceiver struct {
	inner *cloud.ServerRPC
	sw    *traceSwitch
}

// Fetch is the forwarded net/rpc method.
func (r *rpcReceiver) Fetch(args *cloud.RPCFetchArgs, reply *cloud.RPCFetchReply) error {
	t := r.sw.cur.Load()
	if t == nil {
		return r.inner.Fetch(args, reply)
	}
	start := t.now()
	err := r.inner.Fetch(args, reply)
	t.add(span{ID: t.newID(), Kind: kindFetchRPC, Layer: layerServerFetch, Start: start, End: t.now()})
	return err
}

// tracedStore wraps the FileStore: it counts the writes the server issues and,
// while a pass is traced, records one span per call the server makes on the
// request path. Restore, Records and the other calls pass straight through.
type tracedStore struct {
	cloud.Store
	sw     *traceSwitch
	writes atomic.Uint64
}

func (s *tracedStore) timed(l layer, f func()) {
	t := s.sw.cur.Load()
	if t == nil {
		f()
		return
	}
	start := t.now()
	f()
	t.add(span{ID: t.newID(), Layer: l, Start: start, End: t.now()})
}

func (s *tracedStore) Get(id string) (rec *cloud.Record, ok bool) {
	s.timed(layerStoreGet, func() { rec, ok = s.Store.Get(id) })
	return rec, ok
}

func (s *tracedStore) Put(rec *cloud.Record) (err error) {
	s.writes.Add(1)
	s.timed(layerStorePut, func() { err = s.Store.Put(rec) })
	return err
}

func (s *tracedStore) Delete(id, ownerID string) (rec *cloud.Record, err error) {
	s.writes.Add(1)
	s.timed(layerStoreDelete, func() { rec, err = s.Store.Delete(id, ownerID) })
	return rec, err
}

func (s *tracedStore) OwnerScan(ownerID string, fn func(*cloud.Record) bool) {
	s.timed(layerStoreScan, func() { s.Store.OwnerScan(ownerID, fn) })
}

func (s *tracedStore) ReplaceIfUnchanged(ownerID string, swaps []cloud.CTSwap) (err error) {
	s.writes.Add(1)
	s.timed(layerStoreReplace, func() { err = s.Store.ReplaceIfUnchanged(ownerID, swaps) })
	return err
}

// storeRoutes lists the server layers that call each store method.
var storeRoutes = map[layer][]layer{
	layerStoreGet:     {layerServerFetch},
	layerStorePut:     {layerServerUpload},
	layerStoreDelete:  {layerServerDelete},
	layerStoreReplace: {layerServerReencrypt},
	layerStoreScan:    {layerServerScan, layerServerReencrypt},
}

// link types each store span by the server span that called it: the latest
// started span of a compatible route that contains it. Ops overlap only on
// revoke, where the readers' store.get and the revoker's scan and replace
// take different routes, so no store span has two candidates. It returns the
// number of store spans no server span contains.
func link(spans []span) (unlinked int) {
	var servers []int
	maxDur := int64(0)
	for i, s := range spans {
		if isServer(s.Layer) {
			servers = append(servers, i)
			maxDur = max(maxDur, s.dur())
		}
	}
	sort.Slice(servers, func(a, b int) bool { return spans[servers[a]].Start < spans[servers[b]].Start })
	for i := range spans {
		routes, ok := storeRoutes[spans[i].Layer]
		if !ok {
			continue
		}
		st := &spans[i]
		j := sort.Search(len(servers), func(k int) bool { return spans[servers[k]].Start > st.Start }) - 1
		found := false
		for ; j >= 0 && spans[servers[j]].Start >= st.Start-maxDur; j-- {
			sv := spans[servers[j]]
			if sv.End < st.End || !slices.Contains(routes, sv.Layer) {
				continue
			}
			st.Parent, st.Kind, found = sv.ID, sv.Kind, true
			break
		}
		if !found {
			unlinked++
		}
	}
	return unlinked
}

// anatomy is the traced pass's time split: per op type and layer, the total
// span time and the span count.
type anatomy struct {
	total [numKinds][numLayers]int64
	count [numKinds][numLayers]int64
	// storeUnder is the store time called from each server layer, so a
	// route's self time subtracts exactly the store work its requests caused.
	storeUnder [numLayers]int64
	unlinked   int
}

func newAnatomy(spans []span) *anatomy {
	a := &anatomy{unlinked: link(spans)}
	serverLayer := make(map[uint64]layer)
	for _, s := range spans {
		if isServer(s.Layer) {
			serverLayer[s.ID] = s.Layer
		}
	}
	for _, s := range spans {
		if s.Kind == kindNone {
			continue
		}
		a.total[s.Kind][s.Layer] += s.dur()
		a.count[s.Kind][s.Layer]++
		if isStore(s.Layer) {
			a.storeUnder[serverLayer[s.Parent]] += s.dur()
		}
	}
	return a
}

// sum totals a layer over every op type.
func (a *anatomy) sum(l layer) (total, count int64) {
	for k := range a.total {
		total += a.total[k][l]
		count += a.count[k][l]
	}
	return total, count
}

// mean is the mean span duration of a layer over every op type, in unit.
func (a *anatomy) mean(l layer, unit time.Duration) float64 {
	t, n := a.sum(l)
	return ratio(float64(t), float64(n)*float64(unit))
}

// serverSelf is the mean self time of one server route: its span time minus
// the store spans it called and, for re-encryption, the engine run.
func (a *anatomy) serverSelf(l layer, unit time.Duration) float64 {
	t, n := a.sum(l)
	t -= a.storeUnder[l]
	if l == layerServerReencrypt {
		e, _ := a.sum(layerEngine)
		t -= e
	}
	return ratio(float64(t), float64(n)*float64(unit))
}

// transportSelf is the mean self time of one transport's client calls: the
// call time minus the server spans of the op types that use it (each op type
// uses one transport).
func (a *anatomy) transportSelf(l layer, unit time.Duration) float64 {
	var t, n int64
	for k := range a.total {
		if a.count[k][l] == 0 {
			continue
		}
		t += a.total[k][l]
		n += a.count[k][l]
		for s := layerServerFetch; s <= layerServerReencrypt; s++ {
			t -= a.total[k][s]
		}
	}
	return ratio(float64(t), float64(n)*float64(unit))
}

// part is one layer's self time within an op type's latency.
type part struct {
	name string
	ns   int64
}

// parts splits one op type's total latency into layer self times, each a
// layer's span time minus its child layers':
//
//	latency = loadgen.wait + op
//	op      = unattributed + wire.* + core.* + hybrid.* + transport calls
//	call    = transport + server spans
//	server  = server self + store.* + engine
//
// so the parts always add up to the latency; "unattributed" is the op time
// no layer span covers, the benchmark's own glue between calls.
func (a *anatomy) parts(k opKind) []part {
	tot := a.total[k]
	var servers, stores int64
	for l := layerServerFetch; l <= layerServerReencrypt; l++ {
		servers += tot[l]
	}
	for l := layerStoreGet; l <= layerStoreScan; l++ {
		stores += tot[l]
	}
	ps := []part{{"loadgen.wait", tot[layerWait]}, {"unattributed", a.unattributed(k)}}
	for l := layerWireDecode; l <= layerHybridSeal; l++ {
		ps = append(ps, part{l.String(), tot[l]})
	}
	ps = append(ps,
		part{"transport", tot[layerHTTP] + tot[layerRPC] - servers},
		part{"server", servers - stores - tot[layerEngine]})
	for l := layerStoreGet; l <= layerStoreScan; l++ {
		ps = append(ps, part{l.String(), tot[l]})
	}
	return append(ps, part{layerEngine.String(), tot[layerEngine]})
}

// unattributed is the op time of kind k that no client-side layer span
// covers.
func (a *anatomy) unattributed(k opKind) int64 {
	gap := a.total[k][layerOp]
	for l := layerWireDecode; l <= layerRPC; l++ {
		gap -= a.total[k][l]
	}
	return gap
}

// unattributedPct is the share of all traced op time that no layer span
// covers, over every op type of the workload.
func (a *anatomy) unattributedPct() float64 {
	var gap, all int64
	for k := kindRead; k < numKinds; k++ {
		all += a.total[k][layerWait] + a.total[k][layerOp]
		gap += a.unattributed(k)
	}
	return 100 * ratio(float64(gap), float64(all))
}

// report prints the per-op-type anatomy: the mean latency and each layer's
// self time and share of it.
func (a *anatomy) report(w io.Writer) {
	fmt.Fprintf(w, "anatomy (traced pass; mean per op; self time per layer):\n")
	for k := kindRead; k < numKinds; k++ {
		n := a.count[k][layerOp]
		if n == 0 {
			continue
		}
		lat := a.total[k][layerWait] + a.total[k][layerOp]
		fmt.Fprintf(w, "  %-10s n=%-7d mean %10.4f ms\n", k, n, float64(lat)/float64(n)/1e6)
		for _, p := range a.parts(k) {
			if p.ns != 0 {
				fmt.Fprintf(w, "    %-17s %10.4f ms %6.1f%%\n", p.name, float64(p.ns)/float64(n)/1e6, 100*float64(p.ns)/float64(lat))
			}
		}
	}
	if a.unlinked > 0 {
		fmt.Fprintf(w, "  %d store span(s) outside any server span\n", a.unlinked)
	}
}

// writeSpans writes the spans as JSON to dir/spans.json.
func writeSpans(dir string, spans []span) error {
	type jsonSpan struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent,omitempty"`
		Op     string `json:"op"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = jsonSpan{s.ID, s.Parent, s.Kind.String(), s.Layer.String(), s.Start, s.End}
	}
	data, err := json.Marshal(map[string]any{"spans": out})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}
