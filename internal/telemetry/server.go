package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Server is one rank's live endpoint: GET /metrics serves the rank's
// registry followed by the shared process registry in Prometheus text
// format, and /debug/pprof/ exposes the standard Go profiles.
type Server struct {
	Rank int
	Addr string // host:port actually bound
	ln   net.Listener
	srv  *http.Server
}

// URL returns the scrape URL of the metrics endpoint.
func (s *Server) URL() string { return "http://" + s.Addr + "/metrics" }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// NewServer binds addr and serves the given registries (rendered in
// order) for one rank. addr may use port 0 for an ephemeral port.
func NewServer(rank int, addr string, regs ...*Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, regs...)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "rank %d telemetry\n/metrics\n/debug/pprof/\n", rank)
	})
	s := &Server{Rank: rank, Addr: ln.Addr().String(), ln: ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// ServeRanks starts one Server per rank of the set. base is the listen
// address: with port 0 every rank binds an ephemeral port; with an
// explicit port P rank r binds P+r. Each endpoint serves the rank's
// registry followed by the shared process registry.
func ServeRanks(base string, set *MPISet) ([]*Server, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad listen address %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad listen port %q: %w", portStr, err)
	}
	servers := make([]*Server, 0, set.Ranks())
	for r := 0; r < set.Ranks(); r++ {
		p := port
		if port != 0 {
			p = port + r
		}
		s, err := NewServer(r, net.JoinHostPort(host, strconv.Itoa(p)), set.RankRegistry(r), set.ProcessRegistry())
		if err != nil {
			for _, prev := range servers {
				_ = prev.Close()
			}
			return nil, err
		}
		servers = append(servers, s)
	}
	return servers, nil
}

// ListenMap renders the per-rank endpoint map the launchers print.
func ListenMap(servers []*Server) string {
	var b strings.Builder
	for _, s := range servers {
		fmt.Fprintf(&b, "metrics: rank %d %s (pprof: http://%s/debug/pprof/)\n", s.Rank, s.URL(), s.Addr)
	}
	return b.String()
}

// CloseAll shuts every server down.
func CloseAll(servers []*Server) {
	for _, s := range servers {
		_ = s.Close()
	}
}
