package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/server"
)

// node is one in-process pcnserve: a jobs.Manager behind internal/server
// on a loopback listener.
type node struct {
	mgr    *jobs.Manager
	srv    *http.Server
	url    string
	served chan struct{}
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves a new manager on ln and, for a durable manager,
// replays its journal the way pcnserve does: listener first, then
// Recover.
func startNode(ln net.Listener, url string, mopts jobs.Options, sopts server.Options) (*node, error) {
	mgr := jobs.New(mopts)
	n := &node{
		mgr:    mgr,
		srv:    &http.Server{Handler: server.New(mgr, sopts)},
		url:    url,
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	if mopts.DataDir != "" {
		if err := mgr.Recover(); err != nil {
			n.close()
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	return n, nil
}

// close drains the manager, closes the server with its open streams and
// waits for the serve goroutine to return.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.mgr.Shutdown(ctx)
	n.srv.Close()
	<-n.served
	return err
}

// system is one set-up instance of a workload's stack. Clients talk to
// front; in cluster mode workers hold the two worker nodes.
type system struct {
	front   *node
	workers []*node
	coord   *cluster.Coordinator
	store   *results.Store

	stopJoin context.CancelFunc
	joined   sync.WaitGroup
}

// clusterWorkers is the number of worker nodes behind a coordinator.
const clusterWorkers = 2

// startSystem builds the workload's stack. dir is a fresh copy of the
// data directory template (unused without one).
func startSystem(w workload, dir string) (*system, error) {
	sys := &system{store: results.NewStore()}
	mopts := jobs.Options{Results: sys.store}
	if w.dataDir {
		store, err := results.Open(filepath.Join(dir, tableFile))
		if err != nil {
			return nil, err
		}
		sys.store = store
		mopts = jobs.Options{DataDir: dir, CheckpointEvery: w.checkpointEvery, Results: store}
	}
	sopts := server.Options{Results: sys.store}
	if w.cluster {
		sys.coord = cluster.NewCoordinator(cluster.NewRegistry(0, nil), cluster.Options{})
		mopts.Runner = sys.coord
		sopts.Cluster = sys.coord
	}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	if sys.front, err = startNode(ln, url, mopts, sopts); err != nil {
		return nil, err
	}
	if w.cluster {
		if err := sys.startWorkers(); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

// startWorkers boots the worker nodes, lets each join the coordinator
// through /api/v1/cluster/register, and waits until all are alive.
func (sys *system) startWorkers() error {
	ctx, cancel := context.WithCancel(context.Background())
	sys.stopJoin = cancel
	for i := 0; i < clusterWorkers; i++ {
		n, wk, err := startWorker(sys.front.url)
		if err != nil {
			return err
		}
		sys.workers = append(sys.workers, n)
		sys.joined.Add(1)
		go func() {
			defer sys.joined.Done()
			_ = wk.Run(ctx) // returns ctx.Err() once close cancels it
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(sys.coord.Registry().Alive()) < clusterWorkers {
		if time.Now().After(deadline) {
			return errors.New("cluster workers did not register within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// startWorker boots one worker node that joins the coordinator at join;
// the caller runs the returned Worker's join loop.
func startWorker(join string) (*node, *cluster.Worker, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, nil, err
	}
	wk, err := cluster.NewWorker(cluster.WorkerOptions{Join: join, Advertise: url})
	if err != nil {
		ln.Close()
		return nil, nil, err
	}
	n, err := startNode(ln, url, jobs.Options{}, server.Options{Worker: wk})
	return n, wk, err
}

// close stops the front node first, so no lease is in flight when the
// workers go.
func (sys *system) close() error {
	err := sys.front.close()
	if sys.stopJoin != nil {
		sys.stopJoin()
		sys.joined.Wait()
	}
	for _, n := range sys.workers {
		if werr := n.close(); err == nil {
			err = werr
		}
	}
	return err
}

// releases is the coordinator's count of leases that ended without a
// partial; it must stay 0 on a healthy loopback cluster.
func (sys *system) releases() int64 {
	if sys.coord == nil {
		return 0
	}
	return sys.coord.Status().Releases
}
