package attacker

import (
	"context"
	"net"
	"time"

	"auditreg/client"
	"auditreg/server"
)

// This file is the frame of the adversarial audit lab (E18): one fixture
// that owns every in-process daemon and client the observers use, the two
// read games the wire, cluster and stats observers share, and the one list
// of rows that leakprobe -ci and the tests both run. Each observer file
// adds its rows to that list; distinguisher.go plays them.

// Config places the E18 lab.
type Config struct {
	// Seed derives every in-process daemon's key.
	Seed uint64
	// Addr points the stats, timing and metrics observers' honest games at
	// an external auditd; empty boots in-process daemons instead. The
	// metrics observer uses it only together with MetricsURL.
	Addr       string
	MetricsURL string
	// Dir holds the disk observer's trial directories and the in-process
	// stats daemon's data directory.
	Dir string
}

// E18 builds the lab and returns its rows — every observer's honest games
// and positive controls, in report order — plus the function that tears
// the lab down. The rows share the lab's daemons: play them one at a time.
func E18(cfg Config) (rows []Distinguisher, stop func(), err error) {
	l := &lab{}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	for _, observer := range []func(*lab, Config) ([]Distinguisher, error){
		wireGames, clusterGames, diskGames, statsGames, metricsGames, timingGames,
	} {
		r, err := observer(l, cfg)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, r...)
	}
	return rows, l.close, nil
}

// lab owns what the observers start, torn down in reverse order.
type lab struct{ stops []func() }

func (l *lab) onClose(stop func()) { l.stops = append(l.stops, stop) }

func (l *lab) close() {
	for i := len(l.stops) - 1; i >= 0; i-- {
		l.stops[i]()
	}
	l.stops = nil
}

// serve boots an in-process auditd under cfg on ln — a fresh loopback
// listener when ln is nil — and returns it with its address.
func (l *lab) serve(cfg server.Config, ln net.Listener) (*server.Server, string, error) {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, "", err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	go srv.Serve(ln)
	l.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String(), nil
}

// dial connects a client the lab closes.
func (l *lab) dial(addr string, opts ...client.Option) (*client.Client, error) {
	cl, err := client.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	l.onClose(func() { cl.Close() })
	return cl, nil
}

// reader is what the read games drive: client.Object and cluster.Object.
type reader interface {
	Read(reader int) (uint64, error)
}

// game plays one branch of a read game on obj under secret bit b.
type game func(obj reader, b int) error

// readOccurrence: reader 1 always reads the current value; the secret is
// whether reader 0 read it too.
func readOccurrence(obj reader, b int) error {
	if _, err := obj.Read(1); err != nil {
		return err
	}
	if b == 1 {
		_, err := obj.Read(0)
		return err
	}
	return nil
}

// readerIdentity: exactly one read happens; the secret is whether reader 0
// or reader 1 performed it.
func readerIdentity(obj reader, b int) error {
	_, err := obj.Read(b)
	return err
}

// readGames is a channel's four read-game rows, honest then control: the
// read-occurrence and reader-identity games, each played by trial, whose
// leaky argument selects the channel's positive control.
func readGames(channel string, features []string, trial func(leaky bool, play game, b int) ([]float64, error)) []Distinguisher {
	var rows []Distinguisher
	for _, leaky := range []bool{false, true} {
		for _, g := range []struct {
			name string
			play game
		}{{"read-occurrence", readOccurrence}, {"reader-identity", readerIdentity}} {
			rows = append(rows, Distinguisher{
				Name:     gameName(channel+"/"+g.name, leaky),
				Control:  leaky,
				Features: features,
				Trial:    func(b int) ([]float64, error) { return trial(leaky, g.play, b) },
			})
		}
	}
	return rows
}

func gameName(base string, control bool) string {
	if control {
		return base + "+leaky"
	}
	return base
}
