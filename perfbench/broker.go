package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"datamarket/client"
	"datamarket/internal/server"
	"datamarket/internal/store"
)

// broker is brokerd assembled as `brokerd -data-dir` assembles it, with
// every default brokerd's flags leave in place, served in-process on a
// loopback listener. In-process, the traced run can hold
// Server.Handler() and the store.Store to record spans at both.
type broker struct {
	dir      string
	journal  *store.Journal
	p        *server.Persister
	attached time.Time // when persistence attached: the checkpoint clock's zero
	hs       *http.Server
	served   chan error
	url      string
}

func startBroker(workdir string, tr *tracer) (*broker, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, fmt.Errorf("making journal directory: %w", err)
	}
	b := &broker{dir: dir}
	policy, err := store.ParseFsyncPolicy("")
	if err != nil {
		return nil, err
	}
	if b.journal, err = store.OpenJournal(store.JournalConfig{Dir: dir, Fsync: policy}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	var st store.Store = b.journal
	if tr != nil {
		st = tr.wrapStore(st)
	}
	reg := server.NewRegistry(server.DefaultShards)
	srv := server.NewServer(reg)
	if b.p, _, err = server.AttachPersistence(reg, st, server.PersistConfig{Interval: server.DefaultCheckpointInterval}); err != nil {
		b.journal.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("attaching persistence: %w", err)
	}
	b.attached = time.Now()
	srv.SetPersister(b.p)
	h := srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	ln, err := loopbackListener()
	if err != nil {
		b.p.Shutdown()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listening: %w", err)
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

// serverRcvBuf fixes the receive buffer of the broker's sockets. Under
// the kernel's receive-buffer autotuning, the megabyte request bodies of
// ratings over loopback intermittently overran the receive queue, which
// the kernel prunes and the sender recovers only after a retransmission
// timeout: a 200ms stall that hit some runs' tail latency and not
// others'. That is an artifact of loopback's 64KiB segments, not of the
// broker, so the benchmark's listener sizes the buffer to hold a whole
// request. Accepted connections inherit it from the listening socket.
const serverRcvBuf = 4 << 20

func loopbackListener() (net.Listener, error) {
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, serverRcvBuf)
		}); err != nil {
			return err
		}
		return serr
	}}
	return lc.Listen(context.Background(), "tcp", "127.0.0.1:0")
}

// close drains the HTTP edge, then lets the persister take its final
// pass and close the journal, as brokerd shuts down, and removes the
// journal directory.
func (b *broker) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, b.p.Shutdown(), os.RemoveAll(b.dir))
	if err != nil {
		return fmt.Errorf("shutting the broker down: %w", err)
	}
	return nil
}

// newSession builds an SDK client onto the broker. The transport opens at
// most conns connections; the binary codec is on for the workloads that
// use it; tr, when set, records http spans around the transport.
func newSession(b *broker, wl workload, conns int, tr *tracer) (*session, *http.Transport, error) {
	tp := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = tp
	if tr != nil {
		rt = tr.wrapTransport(tp)
	}
	opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: rt})}
	if wl.binary() {
		opts = append(opts, client.WithBinary())
	}
	c, err := client.New(b.url, opts...)
	if err != nil {
		return nil, nil, err
	}
	// A Flusher costs nothing until its first call; only accommodation
	// prices through one.
	return &session{c: c, flusher: client.NewFlusher(c, client.FlusherConfig{}), tr: tr}, tp, nil
}
