package bench

// The million-client scale harness: federations over in-memory net.Pipe
// connections, so a single process can host a coordinator (or a
// leaf/root tree) plus 10⁵ lightweight clients with no sockets, no file
// descriptors, and no kernel buffers. It measures what the streaming
// fold is for — peak aggregator memory versus roster size — alongside
// round throughput and tail latency.
//
// Memory accounting caveat: clients live in the same process as the
// coordinator, so absolute numbers include client-side state (goroutine
// stacks, per-conn gob codecs, read buffers). The comparison that
// matters is relative: the same client fleet under BufferRounds versus
// the streaming fold isolates the coordinator's update buffering, which
// is the only O(roster × params) term. PeakRSSBytes (VmHWM) is
// process-monotonic — run the streaming phase before the buffered one.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cip-fl/cip/internal/fl"
	"github.com/cip-fl/cip/internal/fl/transport"
)

// memAddr is the placeholder address of an in-memory listener.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memListener hands out net.Pipe connections: Dial synthesizes a pipe
// and queues the server end for Accept. Close is idempotent (the
// coordinator's rejoin loop and the harness teardown may both close it).
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener(backlog int) *memListener {
	return &memListener{conns: make(chan net.Conn, backlog), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// Dial is the client-side counterpart, shaped to drop into
// transport.RetryConfig.Dial (the addr is ignored).
func (l *memListener) Dial(string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		server.Close() //nolint:errcheck
		client.Close() //nolint:errcheck
		return nil, net.ErrClosed
	}
}

// loadClient is the cheapest possible federation participant: its update
// aliases the decoded global instead of copying it, and nothing persists
// between rounds, so an idle client holds no parameter state — exactly
// the property that lets one process host 10⁵ of them.
type loadClient struct{ id int }

func (c *loadClient) ID() int         { return c.id }
func (c *loadClient) NumSamples() int { return 1 }
func (c *loadClient) TrainLocal(round int, global []float64) (fl.Update, error) {
	return fl.Update{Params: global, NumSamples: 1, TrainLoss: 1}, nil
}

// ScaleConfig parameterizes one load-harness federation.
type ScaleConfig struct {
	// Clients is the roster size (split evenly across Leaves in tree mode).
	Clients int
	// Dim is the parameter-vector length; one dense update is 8·Dim bytes.
	Dim int
	// Rounds is the federation length.
	Rounds int
	// Buffered forces the legacy materialize-then-aggregate round path —
	// the baseline the streaming fold is measured against.
	Buffered bool
	// Window is the streaming fold's admission window
	// (Coordinator.MaxInflightUpdates); 0 keeps the default.
	Window int
	// Leaves, when > 0, runs a leaf/root tree with this many in-process
	// leaf aggregators instead of a flat coordinator.
	Leaves int
	// Interiors, when > 0 in tree mode, inserts this many interior
	// aggregators between the root and the leaves (a depth-3 tree);
	// leaves attach to interiors round-robin.
	Interiors int
	// SubtreeQuorum sets MinQuorum on every leaf and interior node
	// (0 keeps the nodes fail-stop).
	SubtreeQuorum int
	// CoverageFloor sets Coordinator.CoverageFloor on every partial-
	// accepting node (root and interiors).
	CoverageFloor float64
	// ReadBuf shrinks every per-connection read buffer
	// (Coordinator.ReadBufSize); 0 keeps bufio's 4 KiB default.
	ReadBuf int
}

// ScaleResult is one harness run's report, JSON-shaped for BENCH files.
type ScaleResult struct {
	Mode         string  `json:"mode"` // streaming | buffered | tree
	Clients      int     `json:"clients"`
	Dim          int     `json:"dim"`
	Rounds       int     `json:"rounds"`
	Leaves       int     `json:"leaves,omitempty"`
	Interiors    int     `json:"interiors,omitempty"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// P50/P99 are over per-round wall times after the first round (round
	// 0 absorbs the roster accept and would dominate the tail).
	P50RoundMs float64 `json:"p50_round_ms"`
	P99RoundMs float64 `json:"p99_round_ms"`
	// PeakHeapBytes is the sampled max of runtime HeapInuse during the
	// run minus the pre-run level: the federation's heap footprint.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// PeakRSSBytes is VmHWM from /proc/self/status at run end. It is
	// monotonic over the process lifetime; 0 when unreadable.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
}

func (c ScaleConfig) mode() string {
	switch {
	case c.Leaves > 0:
		return "tree"
	case c.Buffered:
		return "buffered"
	default:
		return "streaming"
	}
}

// roundClock turns Coordinator.AfterRound callbacks into per-round wall
// times, skipping round 0 (it includes the accept phase).
type roundClock struct {
	prev      time.Time
	durations []time.Duration
}

func (rc *roundClock) afterRound(int) error {
	now := time.Now()
	if !rc.prev.IsZero() {
		rc.durations = append(rc.durations, now.Sub(rc.prev))
	}
	rc.prev = now
	return nil
}

func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// samplePeakHeap polls HeapInuse until stop closes, tracking the max.
func samplePeakHeap(stop <-chan struct{}, peak *uint64) {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > atomic.LoadUint64(peak) {
			atomic.StoreUint64(peak, ms.HeapInuse)
		}
	}
}

// vmHWMBytes reads the process peak RSS from /proc/self/status; 0 when
// the file or field is unavailable (non-Linux).
func vmHWMBytes() uint64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// firstErr collects the first failure across a client fleet.
type firstErr struct {
	mu  sync.Mutex
	err error
}

func (f *firstErr) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// RunScaleLoad runs one in-process federation per cfg and reports
// throughput, tail latency, and memory. Flat (Leaves == 0) or tree.
func RunScaleLoad(cfg ScaleConfig) (*ScaleResult, error) {
	if cfg.Clients < 1 || cfg.Dim < 1 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("scale: Clients, Dim, and Rounds must be positive (got %d, %d, %d)",
			cfg.Clients, cfg.Dim, cfg.Rounds)
	}
	if cfg.Leaves > 0 {
		if cfg.Buffered {
			return nil, fmt.Errorf("scale: tree mode has no buffered baseline (the root always streams partials)")
		}
		if cfg.Clients < 2*cfg.Leaves {
			return nil, fmt.Errorf("scale: %d clients cannot cover %d leaves", cfg.Clients, cfg.Leaves)
		}
		if cfg.Interiors > cfg.Leaves {
			return nil, fmt.Errorf("scale: %d leaves cannot cover %d interiors", cfg.Leaves, cfg.Interiors)
		}
	} else if cfg.Interiors > 0 {
		return nil, fmt.Errorf("scale: Interiors requires tree mode (Leaves > 0)")
	}

	// Settle the heap so PeakHeapBytes measures this run, not leftovers
	// from a previous phase in the same process.
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	stopSampling := make(chan struct{})
	peak := before.HeapInuse
	go samplePeakHeap(stopSampling, &peak)

	clock := &roundClock{}
	start := time.Now()
	var err error
	if cfg.Leaves > 0 {
		err = runScaleTree(cfg, clock)
	} else {
		err = runScaleFlat(cfg, clock)
	}
	elapsed := time.Since(start)
	close(stopSampling)
	if err != nil {
		return nil, err
	}

	heap := atomic.LoadUint64(&peak)
	if heap > before.HeapInuse {
		heap -= before.HeapInuse
	} else {
		heap = 0
	}
	res := &ScaleResult{
		Mode:          cfg.mode(),
		Clients:       cfg.Clients,
		Dim:           cfg.Dim,
		Rounds:        cfg.Rounds,
		Leaves:        cfg.Leaves,
		Interiors:     cfg.Interiors,
		ElapsedSec:    elapsed.Seconds(),
		RoundsPerSec:  float64(cfg.Rounds) / elapsed.Seconds(),
		P50RoundMs:    float64(percentile(clock.durations, 0.50)) / float64(time.Millisecond),
		P99RoundMs:    float64(percentile(clock.durations, 0.99)) / float64(time.Millisecond),
		PeakHeapBytes: heap,
		PeakRSSBytes:  vmHWMBytes(),
	}
	return res, nil
}

// launchClients starts n loadClients (ids id0..id0+n-1) against dial and
// returns a wait func.
func launchClients(dial func(string) (net.Conn, error), id0, n int, errs *firstErr) func() {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs.set(transport.RunClientRetry("mem", &loadClient{id: id}, transport.RetryConfig{
				MaxAttempts: 1, Dial: dial,
			}))
		}(id0 + i)
	}
	return wg.Wait
}

func runScaleFlat(cfg ScaleConfig, clock *roundClock) error {
	ln := newMemListener(cfg.Clients)
	defer ln.Close() //nolint:errcheck
	coord := &transport.Coordinator{
		NumClients:         cfg.Clients,
		Rounds:             cfg.Rounds,
		Initial:            make([]float64, cfg.Dim),
		BufferRounds:       cfg.Buffered,
		MaxInflightUpdates: cfg.Window,
		ReadBufSize:        cfg.ReadBuf,
		AfterRound:         clock.afterRound,
	}
	var (
		coordErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, coordErr = coord.RunWithListener(ln, nil)
	}()
	var errs firstErr
	waitClients := launchClients(ln.Dial, 0, cfg.Clients, &errs)
	wg.Wait()
	waitClients()
	if coordErr != nil {
		return fmt.Errorf("scale: coordinator: %w", coordErr)
	}
	if errs.err != nil {
		return fmt.Errorf("scale: client: %w", errs.err)
	}
	return nil
}

func runScaleTree(cfg ScaleConfig, clock *roundClock) error {
	top := cfg.Leaves
	if cfg.Interiors > 0 {
		top = cfg.Interiors
	}
	rootLn := newMemListener(top)
	defer rootLn.Close() //nolint:errcheck
	root := &transport.Coordinator{
		NumClients:         top,
		Rounds:             cfg.Rounds,
		Initial:            make([]float64, cfg.Dim),
		AcceptPartials:     true,
		MinQuorum:          cfg.SubtreeQuorum,
		CoverageFloor:      cfg.CoverageFloor,
		MaxInflightUpdates: cfg.Window,
		ReadBufSize:        cfg.ReadBuf,
		AfterRound:         clock.afterRound,
	}
	var (
		rootErr error
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, rootErr = root.RunWithListener(rootLn, nil)
	}()

	var errs firstErr
	waits := make([]func(), 0, 2*cfg.Leaves+cfg.Interiors)

	// Optional interior tier: leaves attach to interiors round-robin, so
	// interior i serves the leaves with ID ≡ i (mod Interiors).
	parentDial := rootLn.Dial
	leafDial := func(int) func(string) (net.Conn, error) { return parentDial }
	if cfg.Interiors > 0 {
		dials := make([]func(string) (net.Conn, error), cfg.Interiors)
		for i := 0; i < cfg.Interiors; i++ {
			kids := (cfg.Leaves - i + cfg.Interiors - 1) / cfg.Interiors
			iln := newMemListener(kids)
			defer iln.Close() //nolint:errcheck
			dials[i] = iln.Dial
			interior := &transport.Leaf{
				ID:   i,
				Root: "mem",
				Local: transport.Coordinator{
					NumClients:         kids,
					Initial:            make([]float64, cfg.Dim),
					AcceptPartials:     true,
					MinQuorum:          cfg.SubtreeQuorum,
					CoverageFloor:      cfg.CoverageFloor,
					MaxInflightUpdates: cfg.Window,
					ReadBufSize:        cfg.ReadBuf,
				},
				Retry: transport.RetryConfig{MaxAttempts: 1, Dial: rootLn.Dial},
			}
			var iwg sync.WaitGroup
			iwg.Add(1)
			go func(interior *transport.Leaf, iln *memListener) {
				defer iwg.Done()
				if _, err := interior.RunWithListener(iln, nil); err != nil {
					errs.set(fmt.Errorf("interior %d: %w", interior.ID, err))
				}
			}(interior, iln)
			waits = append(waits, iwg.Wait)
		}
		leafDial = func(l int) func(string) (net.Conn, error) { return dials[l%cfg.Interiors] }
	}

	share := cfg.Clients / cfg.Leaves
	for l := 0; l < cfg.Leaves; l++ {
		n := share
		if l == cfg.Leaves-1 {
			n = cfg.Clients - share*(cfg.Leaves-1)
		}
		ln := newMemListener(n)
		defer ln.Close() //nolint:errcheck
		leaf := &transport.Leaf{
			ID:   l / max(cfg.Interiors, 1),
			Root: "mem",
			Local: transport.Coordinator{
				NumClients:         n,
				Initial:            make([]float64, cfg.Dim),
				MinQuorum:          cfg.SubtreeQuorum,
				MaxInflightUpdates: cfg.Window,
				ReadBufSize:        cfg.ReadBuf,
			},
			Retry: transport.RetryConfig{MaxAttempts: 1, Dial: leafDial(l)},
		}
		var lwg sync.WaitGroup
		lwg.Add(1)
		go func(leaf *transport.Leaf, ln *memListener) {
			defer lwg.Done()
			if _, err := leaf.RunWithListener(ln, nil); err != nil {
				errs.set(fmt.Errorf("leaf %d: %w", leaf.ID, err))
			}
		}(leaf, ln)
		waits = append(waits, lwg.Wait, launchClients(ln.Dial, l*share, n, &errs))
	}

	wg.Wait()
	for _, wait := range waits {
		wait()
	}
	if rootErr != nil {
		return fmt.Errorf("scale: root: %w", rootErr)
	}
	if errs.err != nil {
		return fmt.Errorf("scale: %w", errs.err)
	}
	return nil
}

// ScaleGate runs the streaming-vs-buffered pair at one roster size and
// returns both results plus the heap-footprint reduction factor. The
// streaming phase runs first so the monotonic VmHWM still reflects it.
// Both runs shrink per-connection read buffers the way a real large
// roster would; the parameter dimension must be large enough that the
// O(roster × params) buffered column dominates the fixed per-connection
// overhead (goroutine stacks, handshake codecs) or the ratio measures
// that overhead instead.
func ScaleGate(clients, dim, rounds int) (streaming, buffered *ScaleResult, ratio float64, err error) {
	cfg := ScaleConfig{Clients: clients, Dim: dim, Rounds: rounds, ReadBuf: 256}
	streaming, err = RunScaleLoad(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg.Buffered = true
	buffered, err = RunScaleLoad(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	if streaming.PeakHeapBytes > 0 {
		ratio = float64(buffered.PeakHeapBytes) / float64(streaming.PeakHeapBytes)
	}
	return streaming, buffered, ratio, nil
}
