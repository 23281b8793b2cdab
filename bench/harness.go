package main

// Pieces every workload shares: the environment block, process CPU and
// heap readings, telemetry scraping, the mux-plus-sinks rig, and the
// small statistics the metrics are built from.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"peering/bench/sink"
	"peering/internal/benchenv"
	"peering/internal/bufconn"
	"peering/internal/client"
	"peering/internal/muxproto"
	"peering/internal/server"
	"peering/internal/telemetry"
)

const (
	testbedASN = 47065
	// maxProcs caps GOMAXPROCS: the committed numbers come from small
	// boxes, and a figure taken on 2 cores must not be compared with
	// one taken on 32 without the environment block saying so.
	maxProcs = 4
)

// waitLimit bounds every wait for the mux to deliver something. A wait
// that hits it is counted as a failed operation, not retried. (A
// variable so the fault-injection tests need not sit out a minute.)
var waitLimit = 60 * time.Second

// environment is the provenance block printed with every result: the
// repository's benchenv block (gomaxprocs, num_cpu, wall clock) plus
// what this benchmark adds.
type environment struct {
	benchenv.Env
	GoVersion      string  `json:"go_version"`
	Oversubscribed bool    `json:"oversubscribed"`
	Transport      string  `json:"transport"`
	Commit         string  `json:"git_commit"`
	Seed           int64   `json:"seed"`
	Seconds        int     `json:"seconds"`
	Scale          float64 `json:"scale"`
}

// captureEnv pins GOMAXPROCS to min(NumCPU, maxProcs) unless the
// GOMAXPROCS variable overrides it, and records what the run will
// actually use.
func captureEnv(p params, start time.Time) environment {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	}
	env := benchenv.Capture(start)
	return environment{
		Env:            env,
		GoVersion:      runtime.Version(),
		Oversubscribed: env.GOMAXPROCS > env.NumCPU,
		Transport:      "bufconn (in-memory pipes, not loopback)",
		Commit:         gitCommit(),
		Seed:           p.seed,
		Seconds:        int(p.seconds),
		Scale:          p.scale,
	}
}

// gitCommit reads HEAD from the enclosing repository without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			b, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: ")))
			if err != nil {
				return "unknown"
			}
			return strings.TrimSpace(string(b))
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeap collects twice (the second cycle frees what finalizers and
// sync.Pool victims kept alive through the first) and returns
// HeapAlloc.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSince is the live heap grown since an earlier liveHeap reading.
func heapSince(base uint64) uint64 {
	if h := liveHeap(); h > base {
		return h - base
	}
	return 0
}

// median returns the median of v (0 for an empty slice); v is sorted in
// place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// quantile returns the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// scrape renders a telemetry registry and returns every sample keyed by
// its series name as exposed (labels included).
func scrape(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WriteTo(&buf) // a bytes.Buffer write cannot fail
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sumSeries adds up every series of one family (all label values).
func sumSeries(samples map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range samples {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v
		}
	}
	return total
}

// rig is one mux with its sinks attached.
type rig struct {
	srv   *server.Server
	mode  muxproto.Mode
	ups   []*server.Upstream
	sinks []*sink.Sink
	// attached counts every sink ever attached, so client IDs stay
	// unique after sinks leave.
	attached int
	// track is the prefix range every table of this rig tracks by
	// index: the churn pool and the latency probes live in it. It is
	// taken from 9/8 and 10/8, which internal/internet never allocates
	// (it starts at 11.0.0.0).
	track sink.Range
	// wake is poked by every sink (and speaker) when its tables change.
	wake chan struct{}
}

func newRig(cfg server.Config, track sink.Range) *rig {
	cfg.Site = "bench"
	cfg.ASN = testbedASN
	cfg.RouterID = netip.MustParseAddr("184.164.224.1")
	// The point is to carry whole tables through the fan-out queue, not
	// to shed them; and Shards stays zero so the server's own default is
	// what gets measured.
	cfg.Quota.MaxQueueOps = -1
	return &rig{srv: server.New(cfg), mode: cfg.Mode, track: track, wake: make(chan struct{}, 1)}
}

// addUpstream registers upstream id (≥1), announced from AS asn.
func (r *rig) addUpstream(id, asn uint32) (*server.Upstream, error) {
	u, err := r.srv.AddUpstream(server.UpstreamConfig{
		ID: id, Name: fmt.Sprintf("up%d", id), ASN: asn, Transit: true,
		PeerAddr:  netip.AddrFrom4([4]byte{10, 0, byte(id), 1}),
		LocalAddr: netip.AddrFrom4([4]byte{10, 0, byte(id), 2}),
	})
	if err == nil {
		r.ups = append(r.ups, u)
	}
	return u, err
}

func (r *rig) upstreamIDs() []uint32 {
	ids := make([]uint32, len(r.ups))
	for i, u := range r.ups {
		ids[i] = u.Config().ID
	}
	return ids
}

// speak attaches a bare BGP speaker as upstream u's peer.
func (r *rig) speak(u *server.Upstream) (*sink.Speaker, error) {
	serverEnd, peerEnd := bufconn.Pipe()
	r.srv.AttachUpstream(u, serverEnd)
	sp, err := sink.Speak(peerEnd, u.Config().ASN, u.Config().PeerAddr, r.track, r.wake)
	if err != nil {
		return nil, err
	}
	if err := sp.WaitEstablished(waitLimit); err != nil {
		sp.Close()
		return nil, err
	}
	return sp, nil
}

// attach registers and connects n more sinks and returns them without
// waiting for their sessions.
func (r *rig) attach(n int) ([]*sink.Sink, error) {
	added := make([]*sink.Sink, 0, n)
	for i := 0; i < n; i++ {
		k := r.attached
		r.attached++
		id := fmt.Sprintf("s%03d", k)
		if err := r.srv.RegisterClient(server.ClientAccount{
			ID:         id,
			Allocation: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{172, 16 + byte(k>>8), byte(k), 0}), 24)},
			TunnelAddr: netip.AddrFrom4([4]byte{10, 250, byte(k >> 8), byte(k)}),
		}); err != nil {
			return added, err
		}
		serverEnd, sinkEnd := bufconn.Pipe()
		if err := r.srv.AcceptClient(id, serverEnd); err != nil {
			return added, err
		}
		s, err := sink.Attach(sinkEnd, sink.Config{
			Mode: r.mode, ASN: testbedASN,
			RouterID:  netip.AddrFrom4([4]byte{172, 16 + byte(k>>8), byte(k), 1}),
			Upstreams: r.upstreamIDs(), Track: r.track, Wake: r.wake,
		})
		if err != nil {
			return added, err
		}
		r.sinks = append(r.sinks, s)
		added = append(added, s)
	}
	return added, nil
}

// connect registers acct, hands the mux one end of a pipe and connects
// a real client.Client on the other, established when it returns.
func (r *rig) connect(acct server.ClientAccount, routerID netip.Addr) (*client.Client, error) {
	if err := r.srv.RegisterClient(acct); err != nil {
		return nil, err
	}
	serverEnd, clientEnd := bufconn.Pipe()
	if err := r.srv.AcceptClient(acct.ID, serverEnd); err != nil {
		return nil, err
	}
	c, err := client.Connect(client.Config{Name: acct.ID, RouterID: routerID, CountOnly: true}, clientEnd)
	if err != nil {
		return nil, err
	}
	if err := c.WaitEstablished(waitLimit); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// errTimeout is returned by the wait helpers when waitLimit passes.
var errTimeout = errors.New("timed out waiting for the mux")

// waitUntil polls cond every tick until it holds. The rate phases use
// it: a millisecond of detection lag is noise against seconds of work,
// and a sleeping poller costs the mux no CPU.
func waitUntil(tick time.Duration, cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return errTimeout
		}
		time.Sleep(tick)
	}
	return nil
}

// waitWoken blocks on the rig's wake channel between checks. The probe
// phases use it: with one operation in flight the wait must end the
// moment the last sink publishes, not at the next timer tick.
func (r *rig) waitWoken(cond func() bool) error {
	timeout := time.NewTimer(waitLimit)
	defer timeout.Stop()
	for !cond() {
		select {
		case <-r.wake:
		case <-timeout.C:
			return errTimeout
		}
	}
	return nil
}

// waitEstablished waits until every given sink has all its sessions up.
func (r *rig) waitEstablished(sinks []*sink.Sink) error {
	return r.waitWoken(func() bool {
		for _, s := range sinks {
			if int(s.Stats().Established.Load()) < s.Sessions() {
				return false
			}
		}
		return true
	})
}

// close tears the rig down, server first: an administrative Close ends
// every session cleanly, whereas sinks that vanished under a live
// server would read as transport failures and leave redial and
// restart-window timers holding the mux's tables for minutes.
func (r *rig) close() {
	r.srv.Close()
	for _, s := range r.sinks {
		s.Close()
	}
}

// allHold reports whether each sink has received at least want routes
// from upstream id.
func allHold(sinks []*sink.Sink, id uint32, want uint64) bool {
	for _, s := range sinks {
		if s.Table(id).Load().Announced < want {
			return false
		}
	}
	return true
}

// sinksHold reports whether every sink's table for upstream id equals
// want.
func sinksHold(sinks []*sink.Sink, id uint32, want sink.Counts) bool {
	for _, s := range sinks {
		if !s.Table(id).Load().Equal(want) {
			return false
		}
	}
	return true
}

// checkTables counts, over every (sink, upstream) pair, the routes that
// are missing, duplicated or carry the wrong attributes, given the
// model each upstream's table must equal.
func checkTables(sinks []*sink.Sink, models map[uint32]*sink.Table) (failed uint64) {
	for _, s := range sinks {
		// A NOTIFICATION before teardown means the mux gave up on the
		// session; the routes after it are simply missing, but say so.
		failed += s.Stats().Malformed.Load() + s.Stats().Notifications.Load()
		for id, m := range models {
			got, want := s.Table(id).Load(), m.Counts()
			if got.Equal(want) {
				continue
			}
			d := absDiff(got.Announced, want.Announced) + absDiff(got.Withdrawn, want.Withdrawn)
			if d == 0 {
				d = 1 // right counts, wrong contents: at least one bad route
			}
			failed += d
		}
	}
	return failed
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
