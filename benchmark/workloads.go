package main

import (
	"bytes"
	crand "crypto/rand"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand/v2"
	"net/http"
	"net/rpc"
	"sync/atomic"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/hybrid"
	"maacs/internal/pairing"
)

// workloadNames are the workloads in BENCHMARK.json order.
var workloadNames = []string{"read", "download", "churn", "revoke"}

// revokeReadRate is the revoke readers' open-loop rate, in arrivals per
// second.
const revokeReadRate = 20

// workers bounds the benchmark's concurrent ops and connections: the
// reference machine has two cores.
const workers = 2

// scale sizes a workload's population.
type scale struct {
	owners, recordsPerOwner, users int // read and churn
	dataBytes, summaryBytes        int // read, churn and revoke record components
	downloadRecords, templates     int
	downloadBytes                  int
	churnSeeded                    int
	revokeRecords, revokeUsers     int
}

// paperScale is the population the benchmark measures. The download working
// set (about 136 MiB of rendered responses) is about twice the 64 MiB
// response cache, so roughly half the fetches take the render path.
var paperScale = scale{
	owners: 4, recordsPerOwner: 16, users: 16,
	dataBytes: 4096, summaryBytes: 256,
	downloadRecords: 40000, templates: 8, downloadBytes: 256,
	churnSeeded:   200,
	revokeRecords: 32, revokeUsers: 4,
}

// Read and churn records: data under a 3-authority × 2-attribute AND policy
// (six LSSS rows), summary under one attribute.
var (
	threeAuthorities = map[string][]string{"aa1": {"a", "b"}, "aa2": {"a", "b"}, "aa3": {"a", "b"}}
	dataPolicy       = "aa1:a AND aa1:b AND aa2:a AND aa2:b AND aa3:a AND aa3:b"
	summaryPolicy    = "aa1:a"
)

// bench is one workload set up over a fresh deployment.
type bench struct {
	dep  *deployment
	web  *webClient
	rpc  *rpc.Client  // download only
	read atomic.Int64 // response bytes the clients have read
	run  func(p *pass)
}

// setup builds the workload's population and records, deploys a fresh
// server over them, and connects the clients.
func setup(cfg *config) (*bench, error) {
	b := &bench{}
	var err error
	switch cfg.workload {
	case "read":
		err = b.setupRead(cfg)
	case "download":
		err = b.setupDownload(cfg)
	case "churn":
		err = b.setupChurn(cfg)
	case "revoke":
		err = b.setupRevoke(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	return b, nil
}

func (b *bench) close() error {
	if b.web != nil {
		b.web.close()
	}
	if b.rpc != nil {
		b.rpc.Close()
	}
	if b.dep == nil {
		return nil
	}
	return b.dep.close()
}

// group is a set of authorities and owners, every owner holding every
// authority's public keys.
type group struct {
	ca     *core.CA
	aas    map[string]*core.AA
	owners []*core.Owner
}

func newGroup(sys *core.System, attrs map[string][]string, owners ...string) (*group, error) {
	g := &group{ca: core.NewCA(sys), aas: make(map[string]*core.AA)}
	for aid, names := range attrs {
		if err := g.ca.RegisterAA(aid); err != nil {
			return nil, err
		}
		aa, err := core.NewAA(sys, aid, names, crand.Reader)
		if err != nil {
			return nil, err
		}
		g.aas[aid] = aa
	}
	for _, id := range owners {
		o, err := core.NewOwner(sys, id, crand.Reader)
		if err != nil {
			return nil, err
		}
		for _, aa := range g.aas {
			o.InstallPublicKeys(aa.PublicKeys())
		}
		g.owners = append(g.owners, o)
	}
	return g, nil
}

// member is a user with secret keys by owner, then authority.
type member struct {
	uid string
	pk  *core.UserPublicKey
	sks map[string]map[string]*core.SecretKey
}

// addUsers registers n users and grants each the attributes for every owner.
func (g *group) addUsers(prefix string, n int, grants map[string][]string) ([]*member, error) {
	users := make([]*member, n)
	for i := range users {
		uid := fmt.Sprintf("%s-%02d", prefix, i)
		pk, err := g.ca.RegisterUser(uid, crand.Reader)
		if err != nil {
			return nil, err
		}
		m := &member{uid: uid, pk: pk, sks: make(map[string]map[string]*core.SecretKey)}
		for _, o := range g.owners {
			m.sks[o.ID()] = make(map[string]*core.SecretKey)
			for aid, names := range grants {
				sk, err := g.aas[aid].KeyGen(pk, o.SecretKeyForAAs(), names)
				if err != nil {
					return nil, err
				}
				m.sks[o.ID()][aid] = sk
			}
		}
		users[i] = m
	}
	return users, nil
}

func ownerIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

// compSpec is one record component: label, access policy and payload size.
type compSpec struct {
	label, policy string
	size          int
}

// payload derives a component's plaintext from the seed, the ID it was
// generated for and the label, so a reader can check a decryption without
// the benchmark storing every payload.
func payload(seed int64, id, label string, n int) []byte {
	h := fnv.New64a()
	io.WriteString(h, id+"\x00"+label)
	r := rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
	out := make([]byte, (n+7)/8*8)
	for i := 0; i < len(out); i += 8 {
		binary.LittleEndian.PutUint64(out[i:], r.Uint64())
	}
	return out[:n]
}

// sealRecord builds a record in the paper's Fig. 2 format: each component's
// payload sealed under a fresh content key, each content key CP-ABE-encrypted
// under the component's policy. Payloads derive from payloadID.
func sealRecord(o *opRun, sys *core.System, owner *core.Owner, seed int64, id, payloadID string, specs []compSpec) (*cloud.Record, error) {
	comps := make([]hybrid.Component, len(specs))
	for i, s := range specs {
		comps[i] = hybrid.Component{Label: s.label, Data: payload(seed, payloadID, s.label, s.size)}
	}
	var sealed []hybrid.SealedComponent
	var keys []*hybrid.ContentKey
	if err := o.layer(layerHybridSeal, func() (err error) {
		sealed, keys, err = hybrid.SealComponents(sys.Params, comps, crand.Reader)
		return err
	}); err != nil {
		return nil, err
	}
	rec := &cloud.Record{ID: id, OwnerID: owner.ID(), Components: make([]cloud.StoredComponent, len(specs))}
	for i, s := range specs {
		var ct *core.Ciphertext
		if err := o.layer(layerCoreEncrypt, func() (err error) {
			ct, err = owner.Encrypt(keys[i].Element, s.policy, crand.Reader)
			return err
		}); err != nil {
			return nil, err
		}
		rec.Components[i] = cloud.StoredComponent{Label: s.label, CT: ct, Sealed: sealed[i].Sealed}
	}
	return rec, nil
}

var b64 = base64.StdEncoding

// openComponent decodes a fetched component's ciphertext, decrypts its
// content key and opens the payload, each step a span of its layer.
func openComponent(o *opRun, sys *core.System, pk *core.UserPublicKey, sks map[string]*core.SecretKey, c cloud.HTTPComponent) ([]byte, error) {
	var ct *core.Ciphertext
	if err := o.layer(layerWireDecode, func() error {
		raw, err := b64.DecodeString(c.CT)
		if err != nil {
			return err
		}
		ct, err = core.UnmarshalCiphertext(sys.Params, raw)
		return err
	}); err != nil {
		return nil, fmt.Errorf("decode %s: %w", c.Label, err)
	}
	var el *pairing.GT
	if err := o.layer(layerCoreDecrypt, func() (err error) {
		el, err = core.Decrypt(sys, ct, pk, sks)
		return err
	}); err != nil {
		return nil, fmt.Errorf("decrypt %s: %w", c.Label, err)
	}
	var pt []byte
	if err := o.layer(layerHybridOpen, func() error {
		sealed, err := b64.DecodeString(c.Sealed)
		if err != nil {
			return err
		}
		pt, err = (&hybrid.ContentKey{Element: el}).Open(sealed)
		return err
	}); err != nil {
		return nil, fmt.Errorf("open %s: %w", c.Label, err)
	}
	return pt, nil
}

// readRecord fetches a whole record over HTTP, opens every component with the
// user's keys for its owner and checks each plaintext against the payload
// derived from payloadID. Anything wrong after a successful fetch is a wrong
// answer: the user holds every key the policies need.
func readRecord(o *opRun, web *webClient, sys *core.System, seed int64, u *member, id, payloadID string, specs []compSpec) error {
	var rec cloud.HTTPRecord
	if _, err := web.call(o, http.MethodGet, "/records/"+id+"?user="+u.uid, nil, &rec); err != nil {
		return err
	}
	if rec.ID != id || len(rec.Components) != len(specs) {
		return fmt.Errorf("%w: record %s came back as %q with %d components", errWrong, id, rec.ID, len(rec.Components))
	}
	for i, c := range rec.Components {
		pt, err := openComponent(o, sys, u.pk, u.sks[rec.OwnerID], c)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", errWrong, id, err)
		}
		if c.Label != specs[i].label || !bytes.Equal(pt, payload(seed, payloadID, c.Label, specs[i].size)) {
			return fmt.Errorf("%w: %s/%s: plaintext differs", errWrong, id, c.Label)
		}
	}
	return nil
}

func recordSpecs(sc scale) []compSpec {
	return []compSpec{{"data", dataPolicy, sc.dataBytes}, {"summary", summaryPolicy, sc.summaryBytes}}
}

// setupRead: a user agent reads whole records back to back (a closed loop)
// as 16 users from 64 hot records (4 owners × 16), decrypting and checking
// both components.
func (b *bench) setupRead(cfg *config) error {
	sc := cfg.scale
	sys := core.NewSystem(cfg.params)
	g, err := newGroup(sys, threeAuthorities, ownerIDs("owner", sc.owners)...)
	if err != nil {
		return err
	}
	users, err := g.addUsers("user", sc.users, threeAuthorities)
	if err != nil {
		return err
	}
	specs := recordSpecs(sc)
	var recs []*cloud.Record
	for k, owner := range g.owners {
		for i := 0; i < sc.recordsPerOwner; i++ {
			id := fmt.Sprintf("read-%d-%02d", k, i)
			rec, err := sealRecord(untraced(), sys, owner, cfg.seed, id, id, specs)
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	}
	if b.dep, err = deploy(sys, cfg.dir, recs); err != nil {
		return err
	}
	b.web = newWebClient(b.dep.httpAddr, 1, &b.read)
	read := func(o *opRun, j job) error {
		u := users[j.draw%uint64(len(users))]
		id := recs[(j.draw>>32)%uint64(len(recs))].ID
		return readRecord(o, b.web, sys, cfg.seed, u, id, id, specs)
	}
	// One agent: a read's decrypt fans out over both cores by itself. Two
	// agents kept both cores saturated, and in the host's slow phases their
	// CPU time per read rose by up to 40%, so every time metric spread twice
	// as far between runs (README.md).
	b.run = func(p *pass) { p.closedLoop(p.rng.Uint64(), read, share{kindRead, 1}) }
	return nil
}

// expected is a download template's components as the two transports carry
// them.
type expected struct {
	labels      []string
	ct, sealed  [][]byte
	ctB64, sB64 []string
}

// setupDownload: a mirror agent downloads records without decrypting. One
// closed-loop worker alternates fetches over an HTTP keep-alive connection
// with raw CloudServer.Fetch net/rpc calls, with keys uniform over 40,000
// records built from 8 pre-encrypted templates (two 1-row components of
// 256-byte payloads each), and byte-checks every reply.
func (b *bench) setupDownload(cfg *config) error {
	sc := cfg.scale
	sys := core.NewSystem(cfg.params)
	g, err := newGroup(sys, map[string][]string{"aa1": {"a"}}, "mirror-owner")
	if err != nil {
		return err
	}
	owner := g.owners[0]
	specs := []compSpec{{"data", "aa1:a", sc.downloadBytes}, {"meta", "aa1:a", sc.downloadBytes}}
	tmpls := make([]*cloud.Record, sc.templates)
	wants := make([]expected, sc.templates)
	for t := range tmpls {
		name := fmt.Sprintf("template-%d", t)
		if tmpls[t], err = sealRecord(untraced(), sys, owner, cfg.seed, name, name, specs); err != nil {
			return err
		}
		for _, c := range tmpls[t].Components {
			ct := c.CT.Marshal()
			w := &wants[t]
			w.labels = append(w.labels, c.Label)
			w.ct, w.sealed = append(w.ct, ct), append(w.sealed, c.Sealed)
			w.ctB64, w.sB64 = append(w.ctB64, b64.EncodeToString(ct)), append(w.sB64, b64.EncodeToString(c.Sealed))
		}
	}
	recID := func(i int) string { return fmt.Sprintf("mirror-%05d", i) }
	recs := make([]*cloud.Record, sc.downloadRecords)
	for i := range recs {
		recs[i] = &cloud.Record{ID: recID(i), OwnerID: owner.ID(), Components: tmpls[i%len(tmpls)].Components}
	}
	if b.dep, err = deploy(sys, cfg.dir, recs); err != nil {
		return err
	}
	b.web = newWebClient(b.dep.httpAddr, 1, &b.read)
	if b.rpc, err = dialRPC(b.dep.rpcAddr, &b.read); err != nil {
		return err
	}

	fetchHTTP := func(o *opRun, j job) error {
		i := int(j.draw % uint64(len(recs)))
		var rec cloud.HTTPRecord
		if _, err := b.web.call(o, http.MethodGet, "/records/"+recID(i), nil, &rec); err != nil {
			return err
		}
		w := &wants[i%len(wants)]
		ok := rec.ID == recID(i) && rec.OwnerID == owner.ID() && len(rec.Components) == len(w.labels)
		for c := 0; ok && c < len(w.labels); c++ {
			got := rec.Components[c]
			ok = got.Label == w.labels[c] && got.CT == w.ctB64[c] && got.Sealed == w.sB64[c]
		}
		if !ok {
			return fmt.Errorf("%w: HTTP reply for %s differs from its template", errWrong, recID(i))
		}
		return nil
	}
	fetchRPC := func(o *opRun, j job) error {
		i := int(j.draw % uint64(len(recs)))
		var reply cloud.RPCFetchReply
		if err := o.layer(layerRPC, func() error {
			return b.rpc.Call("CloudServer.Fetch", &cloud.RPCFetchArgs{RecordID: recID(i)}, &reply)
		}); err != nil {
			return err
		}
		w := &wants[i%len(wants)]
		ok := reply.OwnerID == owner.ID() && len(reply.Components) == len(w.labels)
		for c := 0; ok && c < len(w.labels); c++ {
			got := reply.Components[c]
			ok = got.Label == w.labels[c] && bytes.Equal(got.CT, w.ct[c]) && bytes.Equal(got.Sealed, w.sealed[c])
		}
		if !ok {
			return fmt.Errorf("%w: RPC reply for %s differs from its template", errWrong, recID(i))
		}
		return nil
	}
	fetch := func(o *opRun, j job) error {
		if j.kind == kindFetchHTTP {
			return fetchHTTP(o, j)
		}
		return fetchRPC(o, j)
	}
	// One agent alternating the transports: with one worker on each, the two
	// loops and their server goroutines kept both cores saturated, and every
	// time metric spread twice as far between runs (README.md).
	b.run = func(p *pass) {
		p.closedLoop(p.rng.Uint64(), fetch, share{kindFetchHTTP, 1}, share{kindFetchRPC, 1})
	}
	return nil
}

// churnEntry is a live churn record: its ID, its owner, and the ID its
// payloads derive from (a template's, for the pre-seeded records).
type churnEntry struct{ id, owner, payloadID string }

// liveSet holds the churn records in upload order: deletes take the oldest,
// reads pick among the newest, so a read never asks for a deleted record.
// Only the churn agent's goroutine uses it.
type liveSet struct {
	entries []churnEntry
	deletes int
}

const churnReadWindow = 64 // reads pick among this many newest records

func (l *liveSet) push(e churnEntry) { l.entries = append(l.entries, e) }

// pop takes the oldest record and numbers the delete.
func (l *liveSet) pop() (churnEntry, int, bool) {
	if len(l.entries) <= churnReadWindow {
		return churnEntry{}, 0, false
	}
	e := l.entries[0]
	l.entries = l.entries[1:]
	l.deletes++
	return e, l.deletes, true
}

// recent picks one of the newest records.
func (l *liveSet) recent(draw uint64) churnEntry {
	n := min(len(l.entries), churnReadWindow)
	return l.entries[len(l.entries)-1-int(draw%uint64(n))]
}

// setupChurn: an owner agent uploads, deletes and reads records back to back
// (a closed loop) — 40% uploads (seal, encrypt both components,
// encode, POST into the durable store), 40% deletes of the oldest churn
// record (200 pre-seeded, every 10th followed by an untimed GET that must
// 404), 20% whole-record reads of a recently uploaded record.
func (b *bench) setupChurn(cfg *config) error {
	sc := cfg.scale
	sys := core.NewSystem(cfg.params)
	g, err := newGroup(sys, threeAuthorities, ownerIDs("owner", sc.owners)...)
	if err != nil {
		return err
	}
	users, err := g.addUsers("user", sc.users, threeAuthorities)
	if err != nil {
		return err
	}
	specs := recordSpecs(sc)
	tmpls := make([]*cloud.Record, sc.templates)
	for t := range tmpls {
		name := fmt.Sprintf("template-%d", t)
		if tmpls[t], err = sealRecord(untraced(), sys, g.owners[t%len(g.owners)], cfg.seed, name, name, specs); err != nil {
			return err
		}
	}
	live := &liveSet{}
	var recs []*cloud.Record
	for i := 0; i < sc.churnSeeded; i++ {
		t := i % len(tmpls)
		id := fmt.Sprintf("churn-seed-%03d", i)
		recs = append(recs, &cloud.Record{ID: id, OwnerID: tmpls[t].OwnerID, Components: tmpls[t].Components})
		live.push(churnEntry{id: id, owner: tmpls[t].OwnerID, payloadID: tmpls[t].ID})
	}
	if b.dep, err = deploy(sys, cfg.dir, recs); err != nil {
		return err
	}
	b.web = newWebClient(b.dep.httpAddr, 1, &b.read)

	upload := func(o *opRun, j job) error {
		owner := g.owners[j.draw%uint64(len(g.owners))]
		id := fmt.Sprintf("churn-%016x", j.draw)
		rec, err := sealRecord(o, sys, owner, cfg.seed, id, id, specs)
		if err != nil {
			return err
		}
		var body []byte
		if err := o.layer(layerWireEncode, func() (err error) {
			in := cloud.HTTPRecord{ID: rec.ID, OwnerID: rec.OwnerID}
			for _, c := range rec.Components {
				in.Components = append(in.Components, cloud.HTTPComponent{
					Label: c.Label, CT: b64.EncodeToString(c.CT.Marshal()), Sealed: b64.EncodeToString(c.Sealed),
				})
			}
			body, err = json.Marshal(in)
			return err
		}); err != nil {
			return err
		}
		if _, err := b.web.call(o, http.MethodPost, "/records", body, nil); err != nil {
			return err
		}
		live.push(churnEntry{id: id, owner: owner.ID(), payloadID: id})
		return nil
	}
	remove := func(o *opRun, j job) error {
		e, nth, ok := live.pop()
		if !ok {
			return errors.New("no churn record old enough to delete")
		}
		if _, err := b.web.call(o, http.MethodDelete, "/records/"+e.id+"?owner="+e.owner, nil, nil); err != nil {
			return err
		}
		if nth%10 == 0 {
			o.after = func() error {
				status, err := b.web.call(untraced(), http.MethodGet, "/records/"+e.id, nil, nil)
				if status != http.StatusNotFound {
					return fmt.Errorf("deleted record %s: GET returned %d (%v)", e.id, status, err)
				}
				return nil
			}
		}
		return nil
	}
	read := func(o *opRun, j job) error {
		e := live.recent(j.draw >> 32)
		return readRecord(o, b.web, sys, cfg.seed, users[j.draw%uint64(len(users))], e.id, e.payloadID, specs)
	}
	exec := func(o *opRun, j job) error {
		switch j.kind {
		case kindUpload:
			return upload(o, j)
		case kindDelete:
			return remove(o, j)
		default:
			return read(o, j)
		}
	}
	// Uploads and deletes are dealt equally, so the live set — and with it
	// the store and the heap — stays the same size however fast the agent
	// runs. One agent, as on read: two kept both cores saturated and spread
	// every time metric three times as far between runs (README.md).
	mix := []share{{kindUpload, 2}, {kindDelete, 2}, {kindRead, 1}}
	b.run = func(p *pass) { p.closedLoop(p.rng.Uint64(), exec, mix...) }
	return nil
}

// revUser is a revoke-workload user: its aa1 key, which no revocation
// touches and readers use, and its aa-rev key, which only the revoker reads
// and replaces.
type revUser struct {
	uid string
	pk  *core.UserPublicKey
	aa1 *core.SecretKey
	rev *core.SecretKey
}

// setupRevoke: a closed-loop revoker repeats the paper's Section V-C
// protocol over HTTP against one owner's 32 records (data under
// "aa-rev:x AND aa1:x", summary under "aa1:y"), while readers fetch and
// decrypt those records' summaries in an open loop at 20/s.
func (b *bench) setupRevoke(cfg *config) error {
	sc := cfg.scale
	sys := core.NewSystem(cfg.params)
	grants := map[string][]string{"aa-rev": {"x"}, "aa1": {"x", "y"}}
	g, err := newGroup(sys, grants, "revoke-owner")
	if err != nil {
		return err
	}
	owner, aaRev := g.owners[0], g.aas["aa-rev"]
	ownerSK := owner.SecretKeyForAAs()
	members, err := g.addUsers("holder", sc.revokeUsers, grants)
	if err != nil {
		return err
	}
	users := make([]*revUser, len(members))
	for i, m := range members {
		k := m.sks[owner.ID()]
		users[i] = &revUser{uid: m.uid, pk: m.pk, aa1: k["aa1"], rev: k["aa-rev"]}
	}
	specs := []compSpec{{"data", "aa-rev:x AND aa1:x", sc.dataBytes}, {"summary", "aa1:y", sc.summaryBytes}}
	recs := make([]*cloud.Record, sc.revokeRecords)
	for i := range recs {
		id := fmt.Sprintf("revoke-%02d", i)
		if recs[i], err = sealRecord(untraced(), sys, owner, cfg.seed, id, id, specs); err != nil {
			return err
		}
	}
	if b.dep, err = deploy(sys, cfg.dir, recs); err != nil {
		return err
	}
	b.web = newWebClient(b.dep.httpAddr, workers, &b.read)

	read := func(o *opRun, j job) error {
		u := users[j.draw%uint64(len(users))]
		id := recs[(j.draw>>32)%uint64(len(recs))].ID
		var c cloud.HTTPComponent
		if _, err := b.web.call(o, http.MethodGet, "/records/"+id+"/summary?user="+u.uid, nil, &c); err != nil {
			return err
		}
		pt, err := openComponent(o, sys, u.pk, map[string]*core.SecretKey{"aa1": u.aa1}, c)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", errWrong, id, err)
		}
		if !bytes.Equal(pt, payload(cfg.seed, id, "summary", sc.summaryBytes)) {
			return fmt.Errorf("%w: %s/summary: plaintext differs", errWrong, id)
		}
		return nil
	}

	// check runs after a revocation of victim: on an affected record the
	// victim's old and reduced keys must both fail, and holder's updated key
	// must decrypt.
	check := func(victim, holder *revUser, old *core.SecretKey, id string) error {
		var rec cloud.HTTPRecord
		if _, err := b.web.call(untraced(), http.MethodGet, "/records/"+id, nil, &rec); err != nil {
			return err
		}
		if len(rec.Components) != len(specs) {
			return fmt.Errorf("record %s has %d components", id, len(rec.Components))
		}
		data := rec.Components[0]
		for _, k := range []*core.SecretKey{old, victim.rev} {
			sks := map[string]*core.SecretKey{"aa-rev": k, "aa1": victim.aa1}
			if _, err := openComponent(untraced(), sys, victim.pk, sks, data); err == nil {
				return fmt.Errorf("revoked user %s still decrypts %s", victim.uid, id)
			}
		}
		sks := map[string]*core.SecretKey{"aa-rev": holder.rev, "aa1": holder.aa1}
		pt, err := openComponent(untraced(), sys, holder.pk, sks, data)
		if err != nil {
			return fmt.Errorf("holder %s cannot decrypt %s: %v", holder.uid, id, err)
		}
		if !bytes.Equal(pt, payload(cfg.seed, id, "data", sc.dataBytes)) {
			return fmt.Errorf("holder %s: %s/data plaintext differs", holder.uid, id)
		}
		return nil
	}

	b.run = func(p *pass) {
		revoke := func(o *opRun, j job) error {
			vi := int(j.draw % uint64(len(users)))
			victim := users[vi]
			var uk *core.UpdateKey
			var reduced *core.SecretKey
			updated := make([]*core.SecretKey, len(users))
			if err := o.layer(layerCoreKeyUpdate, func() error {
				from, _, err := aaRev.Rekey(crand.Reader)
				if err != nil {
					return err
				}
				if uk, err = aaRev.UpdateKeyFor(ownerSK, from); err != nil {
					return err
				}
				if reduced, err = aaRev.KeyGen(victim.pk, ownerSK, nil); err != nil {
					return err
				}
				for i, u := range users {
					if i != vi {
						if updated[i], err = core.UpdateSecretKey(u.rev, uk); err != nil {
							return err
						}
					}
				}
				return nil
			}); err != nil {
				return err
			}
			var list struct {
				Ciphertexts []string `json:"ciphertexts"`
			}
			if _, err := b.web.call(o, http.MethodGet, "/owners/"+owner.ID()+"/ciphertexts", nil, &list); err != nil {
				return err
			}
			cts := make([]*core.Ciphertext, len(list.Ciphertexts))
			for i, enc := range list.Ciphertexts {
				if err := o.layer(layerWireDecode, func() error {
					raw, err := b64.DecodeString(enc)
					if err != nil {
						return err
					}
					cts[i], err = core.UnmarshalCiphertext(sys.Params, raw)
					return err
				}); err != nil {
					return fmt.Errorf("%w: ciphertext %d: %v", errWrong, i, err)
				}
			}
			var uis []*core.UpdateInfo
			if err := o.layer(layerCoreUpdateInfo, func() (err error) {
				uis, err = owner.RevocationUpdate(uk, cts)
				return err
			}); err != nil {
				return err
			}
			var body []byte
			if err := o.layer(layerWireEncode, func() (err error) {
				item := cloud.HTTPReEncryptRequest{UpdateKey: b64.EncodeToString(uk.Marshal())}
				for _, ui := range uis {
					if ui != nil {
						item.UpdateInfos = append(item.UpdateInfos, b64.EncodeToString(ui.Marshal()))
					}
				}
				body, err = json.Marshal(cloud.HTTPBatchReEncryptRequest{Items: []cloud.HTTPReEncryptRequest{item}})
				return err
			}); err != nil {
				return err
			}
			var resp cloud.HTTPBatchReEncryptResponse
			if _, err := b.web.call(o, http.MethodPost, "/owners/"+owner.ID()+"/reencrypt/batch", body, &resp); err != nil {
				return err
			}
			if o.tr != nil {
				end := o.tr.now()
				o.tr.add(span{ID: o.tr.newID(), Parent: o.id, Kind: o.kind, Layer: layerEngine, Start: end - resp.Engine.WallNs, End: end})
			}
			p.rec.engine(resp.Windows)
			if resp.Ciphertexts != len(recs) {
				return fmt.Errorf("%w: re-encrypted %d ciphertexts, want %d", errWrong, resp.Ciphertexts, len(recs))
			}
			old := victim.rev
			for i, k := range updated {
				if k != nil {
					users[i].rev = k
				}
			}
			victim.rev = reduced
			o.after = func() error {
				err := check(victim, users[(vi+1)%len(users)], old, recs[(j.draw>>32)%uint64(len(recs))].ID)
				// Re-grant x so the next cycle can revoke any user again.
				k, gerr := aaRev.KeyGen(victim.pk, ownerSK, []string{"x"})
				if gerr != nil {
					return errors.Join(err, gerr)
				}
				victim.rev = k
				return err
			}
			return nil
		}
		arr := p.schedule(revokeReadRate, share{kindRead, 1})
		seed := p.rng.Uint64()
		parallel(
			func() { p.openLoop(arr, 1, read) },
			func() { p.closedLoop(seed, revoke, share{kindRevoke, 1}) },
		)
	}
	return nil
}
