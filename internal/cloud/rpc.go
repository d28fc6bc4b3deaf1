package cloud

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"maacs/internal/core"
)

// This file provides the networked deployment of the cloud server: a
// net/rpc service speaking the wire encodings from internal/core, plus a
// client that implements the same operations as the in-process *Server.
// Owners and users keep all secret material client-side; only ciphertexts,
// update keys and update information cross the network — exactly the
// paper's trust model.

// RPCComponent is one stored component on the wire.
type RPCComponent struct {
	Label  string
	CT     []byte // core.Ciphertext wire encoding
	Sealed []byte
}

// RPCStoreArgs uploads one record.
type RPCStoreArgs struct {
	RecordID   string
	OwnerID    string
	Components []RPCComponent
}

// RPCFetchArgs requests a record or one of its components.
type RPCFetchArgs struct {
	RecordID string
	Label    string // empty for the whole record
	User     string // downloading user for per-user metering; empty = unattributed
}

// RPCFetchReply returns stored components.
type RPCFetchReply struct {
	OwnerID    string
	Components []RPCComponent
}

// RPCCiphertextsArgs lists an owner's content-key ciphertexts.
type RPCCiphertextsArgs struct {
	OwnerID string
}

// RPCCiphertextsReply carries the encoded ciphertexts.
type RPCCiphertextsReply struct {
	Ciphertexts [][]byte
}

// RPCReEncryptArgs carries one owner's update-info sets for Server.ReEncrypt.
type RPCReEncryptArgs struct {
	OwnerID string
	Items   []RPCReEncryptItem
}

// RPCReEncryptItem is one update-info set of a re-encryption request.
type RPCReEncryptItem struct {
	UpdateKey   []byte   // core.UpdateKey wire encoding
	UpdateInfos [][]byte // core.UpdateInfo wire encodings
}

// RPCReEncryptReply carries the request's BatchReport. net/rpc drops the
// reply on error, so a mid-batch failure is reported through the reply
// instead: the call returns a nil error, Failed carries the failure message,
// and Committed/NextItem describe the committed prefix — the client resumes
// by resubmitting items[NextItem:]. Up-front rejections (malformed or
// overlapping items, an empty batch, an unknown owner) are plain RPC errors.
type RPCReEncryptReply struct {
	BatchReport
	Failed string
}

// ServerRPC exposes a *Server over net/rpc.
type ServerRPC struct {
	sys    *core.System
	server *Server
}

// NewServerRPC wraps a server for RPC export.
func NewServerRPC(sys *core.System, server *Server) *ServerRPC {
	return &ServerRPC{sys: sys, server: server}
}

// Store handles record uploads.
func (s *ServerRPC) Store(args *RPCStoreArgs, _ *struct{}) error {
	comps, err := decodeComponents(s.sys, args.RecordID, args.Components)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.server.Store(&Record{ID: args.RecordID, OwnerID: args.OwnerID, Components: comps})
}

// Fetch handles record and component downloads, rendered by Server.FetchWire
// from the stored record.
func (s *ServerRPC) Fetch(args *RPCFetchArgs, reply *RPCFetchReply) error {
	ownerID, comps, err := s.server.FetchWire(args.RecordID, args.Label, args.User)
	if err != nil {
		return err
	}
	reply.OwnerID = ownerID
	reply.Components = comps
	return nil
}

// RPCDeleteArgs removes a record (owner-authenticated by ID).
type RPCDeleteArgs struct {
	RecordID string
	OwnerID  string
}

// Delete removes a record.
func (s *ServerRPC) Delete(args *RPCDeleteArgs, _ *struct{}) error {
	_, err := s.server.Delete(args.RecordID, args.OwnerID)
	return err
}

// Ciphertexts lists an owner's stored content-key ciphertexts.
func (s *ServerRPC) Ciphertexts(args *RPCCiphertextsArgs, reply *RPCCiphertextsReply) error {
	for _, ct := range s.server.CiphertextsOf(args.OwnerID) {
		reply.Ciphertexts = append(reply.Ciphertexts, marshalCiphertext(ct))
	}
	return nil
}

// decodeReEncryptItem decodes one update-info set from its wire encodings,
// rejecting duplicate ciphertext IDs (silent overwrites in the map would drop
// update info on the floor and report success). Both transports call it:
// RPC with the raw bytes, HTTP once it has base64-decoded them. keys holds
// the request's update keys by encoding, so items repeating one share one
// decoded key and a per-ciphertext batch prepares its UK1 once, as an
// in-process caller handing every item the same key does.
func decodeReEncryptItem(sys *core.System, keys map[string]*core.UpdateKey, updateKey []byte, updateInfos [][]byte) (ReEncryptItem, error) {
	uk, ok := keys[string(updateKey)]
	if !ok {
		var err error
		if uk, err = core.UnmarshalUpdateKey(sys.Params, updateKey); err != nil {
			return ReEncryptItem{}, fmt.Errorf("re-encrypt: %w", err)
		}
		keys[string(updateKey)] = uk
	}
	uis := make(map[string]*core.UpdateInfo, len(updateInfos))
	for i, raw := range updateInfos {
		ui, err := core.UnmarshalUpdateInfo(sys.Params, raw)
		if err != nil {
			return ReEncryptItem{}, fmt.Errorf("re-encrypt info %d: %w", i, err)
		}
		if _, dup := uis[ui.CiphertextID]; dup {
			return ReEncryptItem{}, fmt.Errorf("%w: ciphertext %q listed twice", ErrDuplicateUpdateInfo, ui.CiphertextID)
		}
		uis[ui.CiphertextID] = ui
	}
	return ReEncryptItem{UK: uk, UIs: uis}, nil
}

// ReEncrypt runs Server.ReEncrypt under the server's configured window.
func (s *ServerRPC) ReEncrypt(args *RPCReEncryptArgs, reply *RPCReEncryptReply) error {
	items := make([]ReEncryptItem, len(args.Items))
	keys := make(map[string]*core.UpdateKey)
	for i, it := range args.Items {
		item, err := decodeReEncryptItem(s.sys, keys, it.UpdateKey, it.UpdateInfos)
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		items[i] = item
	}
	report, err := s.server.ReEncrypt(args.OwnerID, items)
	if report == nil {
		return err // rejected up front: nothing ran
	}
	reply.BatchReport = *report
	if err != nil {
		reply.Failed = err.Error()
	}
	return nil
}

// Metrics returns the server's cumulative counters.
func (s *ServerRPC) Metrics(_ *struct{}, reply *Metrics) error {
	*reply = s.server.Metrics()
	return nil
}

// Health describes the server's storage backend — the RPC sibling of
// GET /healthz.
func (s *ServerRPC) Health(_ *struct{}, reply *StoreInfo) error {
	*reply = s.server.StoreInfo()
	return nil
}

// Listener is a running RPC endpoint for a cloud server.
type Listener struct {
	ln net.Listener
	wg sync.WaitGroup // the accept loop and one ServeConn per connection

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // open connections, closed by Close
	closed bool
}

// ServeRPC registers the server on a fresh rpc.Server and accepts
// connections on addr (e.g. "127.0.0.1:0") until Close. It returns the
// bound address.
func ServeRPC(sys *core.System, server *Server, addr string) (*Listener, string, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("CloudServer", NewServerRPC(sys, server)); err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	l := &Listener{ln: ln, conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			l.mu.Lock()
			if l.closed {
				// Accepted while Close ran: Close has already closed the
				// tracked connections and will not see this one.
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.conns[conn] = struct{}{}
			l.mu.Unlock()
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				srv.ServeConn(conn)
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
			}()
		}
	}()
	return l, ln.Addr().String(), nil
}

// Close stops accepting connections, closes every open one and waits for
// their in-flight calls to return. A connection is served until it closes,
// so a client that stayed connected would otherwise block Close, and the
// caller's store flush after it, for as long as it stayed.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	for conn := range l.conns {
		conn.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// RemoteServer is a client for a ServeRPC endpoint, mirroring the
// *Server operations the entities need.
type RemoteServer struct {
	sys    *core.System
	client *rpc.Client
}

// DialServer connects to a remote cloud server.
func DialServer(sys *core.System, addr string) (*RemoteServer, error) {
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial cloud server: %w", err)
	}
	return &RemoteServer{sys: sys, client: client}, nil
}

// Close releases the connection.
func (r *RemoteServer) Close() error { return r.client.Close() }

// Store uploads a record.
func (r *RemoteServer) Store(rec *Record) error {
	args := &RPCStoreArgs{RecordID: rec.ID, OwnerID: rec.OwnerID}
	for _, c := range rec.Components {
		args.Components = append(args.Components, RPCComponent{
			Label: c.Label, CT: c.CT.Marshal(), Sealed: c.Sealed,
		})
	}
	return r.client.Call("CloudServer.Store", args, &struct{}{})
}

// FetchAs downloads a whole record, attributing the download to userID.
func (r *RemoteServer) FetchAs(recordID, userID string) (*Record, error) {
	var reply RPCFetchReply
	if err := r.client.Call("CloudServer.Fetch", &RPCFetchArgs{RecordID: recordID, User: userID}, &reply); err != nil {
		return nil, err
	}
	return r.decodeRecord(recordID, &reply)
}

// FetchComponentAs downloads one component, attributing it to userID. An
// empty label names no component: the server reads it as the whole record.
func (r *RemoteServer) FetchComponentAs(recordID, label, userID string) (*StoredComponent, error) {
	if label == "" {
		return nil, fmt.Errorf("%w: %q/%q", ErrComponentNotFound, recordID, label)
	}
	var reply RPCFetchReply
	if err := r.client.Call("CloudServer.Fetch", &RPCFetchArgs{RecordID: recordID, Label: label, User: userID}, &reply); err != nil {
		return nil, err
	}
	rec, err := r.decodeRecord(recordID, &reply)
	if err != nil {
		return nil, err
	}
	if len(rec.Components) != 1 {
		return nil, fmt.Errorf("cloud: expected one component, got %d", len(rec.Components))
	}
	return &rec.Components[0], nil
}

// Delete removes one of the owner's records.
func (r *RemoteServer) Delete(recordID, ownerID string) error {
	return r.client.Call("CloudServer.Delete", &RPCDeleteArgs{RecordID: recordID, OwnerID: ownerID}, &struct{}{})
}

// CiphertextsOf lists the owner's stored content-key ciphertexts.
func (r *RemoteServer) CiphertextsOf(ownerID string) ([]*core.Ciphertext, error) {
	var reply RPCCiphertextsReply
	if err := r.client.Call("CloudServer.Ciphertexts", &RPCCiphertextsArgs{OwnerID: ownerID}, &reply); err != nil {
		return nil, err
	}
	out := make([]*core.Ciphertext, 0, len(reply.Ciphertexts))
	for i, raw := range reply.Ciphertexts {
		ct, err := core.UnmarshalCiphertext(r.sys.Params, raw)
		if err != nil {
			return nil, fmt.Errorf("ciphertext %d: %w", i, err)
		}
		out = append(out, ct)
	}
	return out, nil
}

// ReEncrypt mirrors Server.ReEncrypt over the wire. On a mid-batch failure
// it returns the partial report alongside an rpc.ServerError carrying the
// server's message; the caller resumes by resubmitting items[NextItem:].
func (r *RemoteServer) ReEncrypt(ownerID string, items []ReEncryptItem) (*BatchReport, error) {
	args := &RPCReEncryptArgs{OwnerID: ownerID, Items: make([]RPCReEncryptItem, len(items))}
	for i, it := range items {
		args.Items[i].UpdateKey = it.UK.Marshal()
		for _, ui := range it.UIs {
			args.Items[i].UpdateInfos = append(args.Items[i].UpdateInfos, ui.Marshal())
		}
	}
	var reply RPCReEncryptReply
	if err := r.client.Call("CloudServer.ReEncrypt", args, &reply); err != nil {
		return nil, err
	}
	if reply.Failed != "" {
		return &reply.BatchReport, rpc.ServerError(reply.Failed)
	}
	return &reply.BatchReport, nil
}

// Health fetches the server's storage backend description.
func (r *RemoteServer) Health() (*StoreInfo, error) {
	var reply StoreInfo
	if err := r.client.Call("CloudServer.Health", &struct{}{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Metrics fetches the server's cumulative counters.
func (r *RemoteServer) Metrics() (*Metrics, error) {
	var reply Metrics
	if err := r.client.Call("CloudServer.Metrics", &struct{}{}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

func (r *RemoteServer) decodeRecord(recordID string, reply *RPCFetchReply) (*Record, error) {
	comps, err := decodeComponents(r.sys, recordID, reply.Components)
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return &Record{ID: recordID, OwnerID: reply.OwnerID, Components: comps}, nil
}
