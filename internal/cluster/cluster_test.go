package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/stats"
)

// ---------------------------------------------------------------
// Child-process mode: when REPRO_CLUSTER_CHILD is set, the test
// binary is one node of a multi-process cluster instead of a test
// runner. The parent passes the node's pre-bound listener as fd 3.
// ---------------------------------------------------------------

func TestMain(m *testing.M) {
	if os.Getenv("REPRO_CLUSTER_CHILD") != "" {
		runChild()
		return
	}
	os.Exit(m.Run())
}

// childApp maps the names the parent sends to fresh workload
// instances; every process must build identical parameters.
func childApp(name string) apps.App {
	switch name {
	case "sor":
		return apps.NewSOR(24, 16, 6)
	case "sor-long":
		return apps.NewSOR(24, 16, 600)
	case "matmul":
		return apps.NewMatMul(24)
	case "taskqueue":
		return apps.NewTaskQueue(40, 200)
	}
	return nil
}

func childProto(name string) (core.Protocol, bool) {
	for _, p := range core.Protocols() {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

func runChild() {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "child: "+format+"\n", args...)
		os.Exit(1)
	}
	self, err := strconv.Atoi(os.Getenv("REPRO_CLUSTER_CHILD"))
	if err != nil {
		fail("bad node id: %v", err)
	}
	addrs := strings.Split(os.Getenv("REPRO_CLUSTER_ADDRS"), ",")
	app := childApp(os.Getenv("REPRO_CLUSTER_APP"))
	if app == nil {
		fail("unknown app %q", os.Getenv("REPRO_CLUSTER_APP"))
	}
	proto, ok := childProto(os.Getenv("REPRO_CLUSTER_PROTO"))
	if !ok {
		fail("unknown protocol %q", os.Getenv("REPRO_CLUSTER_PROTO"))
	}
	ln, err := FileListener(3, "cluster-listener")
	if err != nil {
		fail("inherited listener: %v", err)
	}
	res, err := RunNode(NodeOpts{
		Cfg: core.Config{
			Nodes:           len(addrs),
			Protocol:        proto,
			CallTimeout:     10 * time.Second,
			WatchdogTimeout: 15 * time.Second,
		},
		App:        app,
		Self:       self,
		Addrs:      addrs,
		Listener:   ln,
		DialWindow: 20 * time.Second,
	})
	if err != nil {
		fail("node %d: %v", self, err)
	}
	if res.HasChecksum {
		fmt.Printf("checksum=%016x\n", res.Checksum)
	}
	os.Exit(0)
}

// ---------------------------------------------------------------
// Parent-side tests
// ---------------------------------------------------------------

// transports names Run's two branches for table-driven tests.
var transports = []struct {
	name string
	tcp  bool
}{{"sim", false}, {"tcp", true}}

// checkShape asserts what every Result carries whatever carried the
// messages: one snapshot per node, a Total that is their sum, a timed
// Run phase, and traffic.
func checkShape(t *testing.T, transport string, res *Result, nodes int) {
	t.Helper()
	if len(res.Nodes) != nodes {
		t.Fatalf("%s: %d per-node snapshots, want %d", transport, len(res.Nodes), nodes)
	}
	total := res.Total().Fields()
	for i, f := range total {
		var sum int64
		for _, n := range res.Nodes {
			sum += n.Fields()[i].Value
		}
		if sum != f.Value {
			t.Fatalf("%s: Total().%s = %d, per-node snapshots sum to %d", transport, f.Name, f.Value, sum)
		}
	}
	if res.Total().MsgsSent == 0 {
		t.Fatalf("%s: a %d-node run recorded no messages", transport, nodes)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("%s: no elapsed time", transport)
	}
}

// simChecksum runs the workload on the in-process simulator and
// returns node 0's result hash — the reference the TCP runs must
// match byte for byte.
func simChecksum(t *testing.T, cfg core.Config, newApp func() apps.App) uint64 {
	t.Helper()
	res, err := Run(Spec{Cfg: cfg, App: newApp})
	if err != nil {
		t.Fatalf("simnet run: %v", err)
	}
	checkShape(t, "sim", res, cfg.Nodes)
	if !res.HasChecksum {
		t.Fatalf("simnet run produced no checksum")
	}
	return res.Checksum
}

// TestLoopbackMatchesSimnet is the byte-identity matrix: SOR, matrix
// multiply, and the task farm under sequential consistency, eager
// release consistency, and lazy release consistency each produce the
// same result hash, in the same Result shape, on a real TCP cluster
// as on the simulator.
func TestLoopbackMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket matrix in -short mode")
	}
	workloads := map[string]func() apps.App{
		"sor":       func() apps.App { return apps.NewSOR(24, 16, 6) },
		"matmul":    func() apps.App { return apps.NewMatMul(24) },
		"taskqueue": func() apps.App { return apps.NewTaskQueue(40, 200) },
	}
	protos := []core.Protocol{core.SCFixed, core.ERCInvalidate, core.LRC}
	for name, newApp := range workloads {
		for _, proto := range protos {
			t.Run(fmt.Sprintf("%s/%s", name, proto), func(t *testing.T) {
				t.Parallel()
				cfg := core.Config{
					Nodes:           3,
					Protocol:        proto,
					CallTimeout:     10 * time.Second,
					WatchdogTimeout: 60 * time.Second,
				}
				want := simChecksum(t, cfg, newApp)
				res, err := Run(Spec{Cfg: cfg, App: newApp, TCP: true})
				if err != nil {
					t.Fatalf("tcp loopback: %v", err)
				}
				checkShape(t, "tcp", res, cfg.Nodes)
				if !res.HasChecksum {
					t.Fatalf("node 0 produced no checksum")
				}
				if res.Checksum != want {
					t.Fatalf("tcp result differs from simnet: %016x != %016x", res.Checksum, want)
				}
			})
		}
	}
}

// lockKernel is a workload of one goroutine: node 0 takes lock 1 —
// managed by node 1 of two — and releases it, iters times.
type lockKernel struct{ iters int }

func (lockKernel) Name() string               { return "lock-kernel" }
func (lockKernel) Setup(*core.Cluster) error  { return nil }
func (lockKernel) Verify(*core.Cluster) error { return nil }
func (lockKernel) LocksOnly() bool            { return true }
func (k lockKernel) Run(n *core.Node) error {
	for i := 0; i < k.iters && n.ID() == 0; i++ {
		if err := n.Acquire(1); err != nil {
			return err
		}
		if err := n.Release(1); err != nil {
			return err
		}
	}
	return nil
}

// TestTCPRunsTheFaultFreeProtocol: TCP loses no frame it accepted, so
// a TCP node runs exactly the simulator's fault-free protocol — one-way
// releases, no retransmission, no duplicate table. Once the two
// shutdown barriers only TCP runs are subtracted (measured with an
// empty kernel on each transport), the lock kernel sends the same
// messages and bytes on both.
func TestTCPRunsTheFaultFreeProtocol(t *testing.T) {
	traffic := func(tcp bool, iters int) stats.Snapshot {
		t.Helper()
		res, err := Run(Spec{
			Cfg: core.Config{Nodes: 2, CallTimeout: 10 * time.Second},
			App: func() apps.App { return lockKernel{iters} },
			TCP: tcp,
		})
		if err != nil {
			t.Fatalf("tcp=%v iters=%d: %v", tcp, iters, err)
		}
		return res.Total()
	}
	var sent [2][2]int64 // [sim, tcp][msgs, bytes], the kernel's own
	for i, tcp := range []bool{false, true} {
		lock, empty := traffic(tcp, 200), traffic(tcp, 0)
		sent[i] = [2]int64{lock.MsgsSent - empty.MsgsSent, lock.BytesSent - empty.BytesSent}
		if tcp && lock.Retries+lock.DupRequests+lock.CachedReplies+lock.LateReplies != 0 {
			t.Errorf("tcp: retries=%d dup_requests=%d cached_replies=%d late_replies=%d, want all 0",
				lock.Retries, lock.DupRequests, lock.CachedReplies, lock.LateReplies)
		}
	}
	if sent[0] != sent[1] {
		t.Fatalf("200 remote lock round trips: sim sent %d msgs / %d bytes, tcp %d / %d beyond its shutdown barriers",
			sent[0][0], sent[0][1], sent[1][0], sent[1][1])
	}
}

// TestRunCollectsStats: a traced, sampled run returns one stream and
// its counters per node on either transport, and each sampler's last
// sample equals the counters it is returned with.
func TestRunCollectsStats(t *testing.T) {
	for _, tr := range transports {
		cfg := core.Config{Nodes: 3, Protocol: core.LRC, PageSize: 256, HeapBytes: 1 << 18, EventTrace: true}
		res, err := Run(Spec{
			Cfg: cfg, TCP: tr.tcp,
			App:     func() apps.App { return apps.NewHistogram(1<<10, 8) },
			Observe: Observe{Sample: true, SampleInterval: 5 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", tr.name, err)
		}
		checkShape(t, tr.name, res, cfg.Nodes)
		if len(res.Traces) != cfg.Nodes {
			t.Fatalf("%s: %d trace streams, want %d", tr.name, len(res.Traces), cfg.Nodes)
		}
		finals := []stats.Snapshot{res.Total()} // simulator: one aggregate sampler
		if tr.tcp {
			finals = res.Nodes
		}
		if len(res.Samplers) != len(finals) {
			t.Fatalf("%s: %d samplers, want %d", tr.name, len(res.Samplers), len(finals))
		}
		for i, smp := range res.Samplers {
			if bad := smp.Reconcile(finals[i]); len(bad) != 0 {
				t.Fatalf("%s: sampler %d does not reconcile: %v", tr.name, i, bad)
			}
		}
	}
}

func TestRunPropagatesVerifyFailure(t *testing.T) {
	// A cluster too small for the heap the app wants must error out
	// of Setup, not panic.
	for _, tr := range transports {
		_, err := Run(Spec{
			Cfg: core.Config{
				Nodes:       2,
				Protocol:    core.SCFixed,
				PageSize:    256,
				HeapBytes:   512, // too small for the histogram bins
				CallTimeout: 5 * time.Second,
			},
			App: func() apps.App { return apps.NewHistogram(1<<10, 512) },
			TCP: tr.tcp,
		})
		if err == nil {
			t.Fatalf("%s: impossible setup succeeded", tr.name)
		}
	}
}

// corrupt is a workload whose result never matches its reference.
type corrupt struct{ apps.App }

func (corrupt) Verify(*core.Cluster) error { return fmt.Errorf("result differs from reference") }

// TestRunReturnsResultOnVerifyFailure: a run that completes but fails
// verification hands back what it collected next to the error, so a
// tool can still print the counters of the run that went wrong.
func TestRunReturnsResultOnVerifyFailure(t *testing.T) {
	res, err := Run(Spec{
		Cfg: core.Config{Nodes: 2, Protocol: core.SCFixed},
		App: func() apps.App { return corrupt{apps.NewSOR(24, 16, 2)} },
	})
	if err == nil || !strings.Contains(err.Error(), "result differs from reference") {
		t.Fatalf("verify failure not reported: %v", err)
	}
	if res == nil || len(res.Nodes) != 2 || res.Total().MsgsSent == 0 {
		t.Fatalf("no result collected beside the verify error: %+v", res)
	}
}

// TestSampleReconciles is the property `dsmrun -sample` relies on: on
// the simulator, under lrc (whose diff pushes and acks are still
// landing when the app returns), fault-free and under a chaos plan,
// the sampler's final sample equals the final counters. Run quiesces
// before the last sample; without that this failed 3 runs in 15.
func TestSampleReconciles(t *testing.T) {
	params := kv.Params{Keys: 256, Ops: 200, Dist: loadgen.Zipfian, Theta: 0.99, Mix: loadgen.ReadHeavy, Seed: 16}
	plan := chaos.DefaultPlan(3, 16)
	for name, p := range map[string]*chaos.Plan{"fault-free": nil, "chaos": &plan} {
		res, err := Run(Spec{
			Cfg:     core.Config{Nodes: 3, Protocol: core.LRC, PageSize: 512, Seed: 16, EventTrace: true},
			App:     func() apps.App { return kv.New(params) },
			Chaos:   p,
			Observe: Observe{Sample: true, SampleInterval: 10 * time.Millisecond},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Samplers) != 1 {
			t.Fatalf("%s: %d samplers, want the one aggregate", name, len(res.Samplers))
		}
		if bad := res.Samplers[0].Reconcile(res.Total()); len(bad) != 0 {
			t.Fatalf("%s: sampler does not reconcile with the final counters: %v", name, bad)
		}
		if s := res.Total(); (s.MsgsDropped > 0) != (p != nil) {
			t.Fatalf("%s: faults injected: %v", name, s)
		}
	}
}

// TestChaosIsSimulatorOnly: the TCP branch refuses a chaos plan
// instead of silently running fault-free.
func TestChaosIsSimulatorOnly(t *testing.T) {
	plan := chaos.DefaultPlan(2, 1)
	_, err := Run(Spec{
		Cfg:   core.Config{Nodes: 2},
		App:   func() apps.App { return apps.NewSOR(24, 16, 2) },
		TCP:   true,
		Chaos: &plan,
	})
	if err == nil || !strings.Contains(err.Error(), "simulator-only") {
		t.Fatalf("tcp + chaos: %v", err)
	}
}

// spawnNode launches this test binary as cluster node i with its
// pre-bound listener on fd 3.
func spawnNode(t *testing.T, i int, addrs []string, ln net.Listener, app, proto string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	f, err := ListenerFile(ln)
	if err != nil {
		t.Fatalf("listener file: %v", err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=NONE")
	cmd.Env = append(os.Environ(),
		"REPRO_CLUSTER_CHILD="+strconv.Itoa(i),
		"REPRO_CLUSTER_ADDRS="+strings.Join(addrs, ","),
		"REPRO_CLUSTER_APP="+app,
		"REPRO_CLUSTER_PROTO="+proto,
	)
	cmd.ExtraFiles = []*os.File{f}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn node %d: %v", i, err)
	}
	// The child inherited dups; drop the parent's references so the
	// child wholly owns its socket (killing it closes the port).
	f.Close()
	ln.Close()
	return cmd, &out
}

func bindLoopback(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// waitFor waits for a child with a deadline, killing it on overrun.
func waitFor(t *testing.T, i int, cmd *exec.Cmd, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("node %d still running after %v (hang instead of error)", i, d)
		return nil
	}
}

// TestMultiProcessCluster runs a 3-node cluster as three real OS
// processes over TCP loopback and checks the result hash against the
// simulator baseline.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const app, proto = "sor", "lrc"
	want := simChecksum(t,
		core.Config{Nodes: 3, Protocol: core.LRC, CallTimeout: 10 * time.Second},
		func() apps.App { return childApp(app) })
	lns, addrs := bindLoopback(t, 3)
	cmds := make([]*exec.Cmd, 3)
	outs := make([]*bytes.Buffer, 3)
	for i := range cmds {
		cmds[i], outs[i] = spawnNode(t, i, addrs, lns[i], app, proto)
	}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, cmd := range cmds {
		wg.Add(1)
		go func(i int, cmd *exec.Cmd) {
			defer wg.Done()
			errs[i] = waitFor(t, i, cmd, 2*time.Minute)
		}(i, cmd)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d failed: %v\n%s", i, err, outs[i].String())
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	got := ""
	for _, line := range strings.Split(outs[0].String(), "\n") {
		if strings.HasPrefix(line, "checksum=") {
			got = strings.TrimPrefix(line, "checksum=")
		}
	}
	if got == "" {
		t.Fatalf("node 0 printed no checksum:\n%s", outs[0].String())
	}
	if want := fmt.Sprintf("%016x", want); got != want {
		t.Fatalf("multi-process result differs from simnet: %s != %s", got, want)
	}
}

// TestPeerDeathFailsLoudly kills one process of a running 3-node
// cluster and requires the survivors to exit promptly with an error
// naming the dead peer instead of hanging: its connections end without
// the end-of-stream frame, which fails each survivor's transport.
func TestPeerDeathFailsLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	const app, proto = "sor-long", "sc-fixed"
	lns, addrs := bindLoopback(t, 3)
	cmds := make([]*exec.Cmd, 3)
	outs := make([]*bytes.Buffer, 3)
	for i := range cmds {
		cmds[i], outs[i] = spawnNode(t, i, addrs, lns[i], app, proto)
	}
	time.Sleep(500 * time.Millisecond) // let the run get going
	if err := cmds[2].Process.Kill(); err != nil {
		t.Fatalf("kill node 2: %v", err)
	}
	_ = cmds[2].Wait()
	for _, i := range []int{0, 1} {
		err := waitFor(t, i, cmds[i], 20*time.Second)
		if err == nil {
			t.Errorf("node %d exited cleanly despite a dead peer:\n%s", i, outs[i].String())
		} else if !strings.Contains(outs[i].String(), "peer node 2") {
			t.Errorf("node %d's error does not name node 2:\n%s", i, outs[i].String())
		}
	}
}

// TestDebugEndpointServes: a TCP node started with DebugAddr answers
// /stats, /trace, and /histograms over HTTP while the cluster is
// live. The fetch happens from OnDebug, which fires after the node
// joins but before the workload runs, so the endpoint provably serves
// mid-session rather than from a post-run snapshot.
func TestDebugEndpointServes(t *testing.T) {
	lns, addrs := bindLoopback(t, 2)
	cfg := core.Config{
		Nodes:       2,
		Protocol:    core.LRC,
		EventTrace:  true,
		CallTimeout: 10 * time.Second,
	}
	bodies := make(map[string][]byte)
	var fetchErr error
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		opts := NodeOpts{
			Cfg:      cfg,
			App:      apps.NewSOR(24, 16, 6),
			Self:     i,
			Addrs:    addrs,
			Listener: lns[i],
		}
		if i == 0 {
			opts.DebugAddr = "127.0.0.1:0"
			opts.OnDebug = func(addr string) {
				for _, path := range []string{"/stats", "/trace", "/histograms"} {
					resp, err := http.Get("http://" + addr + path)
					if err != nil {
						fetchErr = fmt.Errorf("%s: %w", path, err)
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						fetchErr = fmt.Errorf("%s: %s", path, resp.Status)
						return
					}
					bodies[path] = b
				}
			}
		}
		wg.Add(1)
		go func(o NodeOpts) {
			defer wg.Done()
			_, errs[o.Self] = RunNode(o)
		}(opts)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if fetchErr != nil {
		t.Fatal(fetchErr)
	}
	var st struct {
		Node     int32            `json:"node"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(bodies["/stats"], &st); err != nil {
		t.Fatalf("/stats is not valid JSON: %v\n%s", err, bodies["/stats"])
	}
	if st.Node != 0 || st.Counters == nil {
		t.Fatalf("/stats = %+v", st)
	}
	var tr struct {
		Node int32 `json:"node"`
	}
	if err := json.Unmarshal(bodies["/trace"], &tr); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if !json.Valid(bodies["/histograms"]) {
		t.Fatalf("/histograms is not valid JSON:\n%s", bodies["/histograms"])
	}
}

// TestWorkloadMismatchRejected starts two nodes that disagree about
// the workload; the handshake digest must refuse to let them form a
// cluster.
func TestWorkloadMismatchRejected(t *testing.T) {
	lns, addrs := bindLoopback(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(i int, app apps.App) {
		defer wg.Done()
		_, errs[i] = RunNode(NodeOpts{
			Cfg: core.Config{
				Nodes:       2,
				Protocol:    core.SCFixed,
				CallTimeout: 5 * time.Second,
			},
			App:        app,
			Self:       i,
			Addrs:      addrs,
			Listener:   lns[i],
			DialWindow: 5 * time.Second,
		})
	}
	wg.Add(2)
	go run(0, apps.NewSOR(24, 16, 6))
	go run(1, apps.NewSOR(32, 32, 2))
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatalf("mismatched workloads formed a cluster")
	}
	combined := ""
	for _, err := range errs {
		if err != nil {
			combined += err.Error()
		}
	}
	if !strings.Contains(combined, "digest mismatch") {
		t.Fatalf("mismatch not attributed to the handshake digest: %v / %v", errs[0], errs[1])
	}
}
