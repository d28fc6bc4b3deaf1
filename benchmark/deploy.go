package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/rpc"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"maacs/internal/cloud"
	"maacs/internal/core"
)

// deployment is one fresh server, set up the way cmd/maacs-server runs it
// with -store file: a FileStore in its own directory with the default 1 MiB
// WAL segments and 4 MiB compaction threshold (every group commit is one
// fsync), the cloud server with a 64-item re-encrypt window and the default
// 64 MiB response cache, and the HTTP gateway and net/rpc endpoint on
// loopback. The tracing wrappers stay installed and record only while a
// pass is traced.
type deployment struct {
	dir    string
	fs     *cloud.FileStore
	store  *tracedStore
	server *cloud.Server
	sw     *traceSwitch

	httpSrv  *http.Server
	httpAddr string
	rpcLn    net.Listener
	rpcAddr  string
	wg       sync.WaitGroup // the HTTP serve loop, the RPC accept loop and its connections

	mu    sync.Mutex
	conns []net.Conn // accepted RPC connections
}

// deploy loads the records into a new FileStore under parent — one
// Restore, then a compaction, so the measurement starts with the WAL folded
// — and starts the server over it.
func deploy(sys *core.System, parent string, records []*cloud.Record) (d *deployment, err error) {
	d = &deployment{sw: &traceSwitch{}}
	if d.dir, err = os.MkdirTemp(parent, "store-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.fs, err = cloud.OpenFileStore(sys, d.dir); err != nil {
		return d, err
	}
	if err = d.fs.Restore(records); err != nil {
		return d, fmt.Errorf("load records: %w", err)
	}
	if err = d.fs.Compact(); err != nil {
		return d, fmt.Errorf("compact: %w", err)
	}
	d.store = &tracedStore{Store: d.fs, sw: d.sw}
	d.server = cloud.NewServerWithStore(sys, cloud.NewAccounting(), d.store)
	d.server.SetBatchWindow(64)

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return d, err
	}
	d.httpAddr = httpLn.Addr().String()
	d.httpSrv = &http.Server{
		Handler:           middleware(d.sw, cloud.NewHTTPHandler(sys, d.server)),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.httpSrv.Serve(httpLn) // returns http.ErrServerClosed on close
	}()

	rs := rpc.NewServer()
	if err = rs.RegisterName("CloudServer", &rpcReceiver{inner: cloud.NewServerRPC(sys, d.server), sw: d.sw}); err != nil {
		return d, err
	}
	if d.rpcLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return d, err
	}
	d.rpcAddr = d.rpcLn.Addr().String()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			conn, err := d.rpcLn.Accept()
			if err != nil {
				return // listener closed
			}
			d.mu.Lock()
			d.conns = append(d.conns, conn)
			d.mu.Unlock()
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				rs.ServeConn(conn)
			}()
		}
	}()
	return d, nil
}

// close stops the listeners, waits for their goroutines, flushes and closes
// the store, and removes its directory.
func (d *deployment) close() error {
	if d.httpSrv != nil {
		d.httpSrv.Close()
	}
	if d.rpcLn != nil {
		d.rpcLn.Close()
	}
	d.mu.Lock()
	for _, c := range d.conns {
		c.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	var err error
	switch {
	case d.server != nil:
		err = d.server.Close()
	case d.fs != nil:
		err = d.fs.Close()
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// countingConn counts the bytes a client reads from the server.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// webClient speaks the HTTP/JSON gateway over at most conns keep-alive
// connections.
type webClient struct {
	base string
	hc   *http.Client
}

func newWebClient(addr string, conns int, read *atomic.Int64) *webClient {
	var dialer net.Dialer
	return &webClient{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					c, err := dialer.DialContext(ctx, network, addr)
					if err != nil {
						return nil, err
					}
					return &countingConn{Conn: c, n: read}, nil
				},
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

// call issues one request as a transport span of the op: the round trip, the
// body read and, for a 2xx reply, decoding the JSON body into out (nil: body
// discarded). A non-2xx reply returns its status with an error.
func (c *webClient) call(o *opRun, method, path string, body []byte, out any) (status int, err error) {
	var id uint64
	var start int64
	if o.tr != nil {
		id, start = o.tr.newID(), o.tr.now()
		defer func() {
			o.tr.add(span{ID: id, Parent: o.id, Kind: o.kind, Layer: layerHTTP, Start: start, End: o.tr.now()})
		}()
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if o.tr != nil {
		req.Header.Set(headerOp, o.kind.String())
		req.Header.Set(headerSpan, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func (c *webClient) close() { c.hc.CloseIdleConnections() }

// dialRPC opens one net/rpc connection.
func dialRPC(addr string, read *atomic.Int64) (*rpc.Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(&countingConn{Conn: conn, n: read}), nil
}
