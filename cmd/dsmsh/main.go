// dsmsh is an interactive shell over a live DSM cluster — the
// tutorial companion: issue reads, writes, locks, events and
// barriers from chosen nodes, watch the protocol events they
// generate, and inspect page tables as protections change.
//
//	dsmsh -proto sc-dynamic -nodes 3
//	dsm> write 0 0x100 42
//	dsm> read 2 0x100
//	dsm> pages 0
//	dsm> trace on
//	dsm> stats
//
// Non-interactive use: dsmsh -c "write 0 0 7; read 1 0; stats"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

type shell struct {
	c       *core.Cluster
	tracing bool
	shown   int64 // unix ns: events up to here are printed already, or predate `trace on`
	out     *os.File
}

func main() {
	protoName := flag.String("proto", "sc-fixed", "protocol")
	nodes := flag.Int("nodes", 3, "cluster size")
	page := flag.Int("page", 256, "page size")
	script := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	flag.Parse()

	var proto core.Protocol
	found := false
	for _, p := range core.Protocols() {
		if p.String() == *protoName {
			proto, found = p, true
		}
	}
	if !found {
		log.Fatalf("unknown protocol %q", *protoName)
	}
	sh := &shell{out: os.Stdout}
	cluster, err := core.NewCluster(core.Config{
		Nodes:      *nodes,
		Protocol:   proto,
		PageSize:   *page,
		HeapBytes:  1 << 20,
		EventTrace: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	sh.c = cluster

	if *script != "" {
		for _, line := range strings.Split(*script, ";") {
			if err := sh.exec(strings.TrimSpace(line)); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Printf("godsm shell — %d nodes under %s; type 'help'\n", *nodes, proto)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("dsm> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (sh *shell) node(arg string) (*core.Node, error) {
	id, err := strconv.Atoi(arg)
	if err != nil || id < 0 || id >= sh.c.N() {
		return nil, fmt.Errorf("bad node %q (cluster of %d)", arg, sh.c.N())
	}
	return sh.c.Node(id), nil
}

func parseAddr(arg string) (int64, error) {
	v, err := strconv.ParseInt(arg, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", arg)
	}
	return v, nil
}

// exec runs one command and, while tracing is on, prints the slice
// of the causally merged timeline newer than what was last printed.
func (sh *shell) exec(line string) error {
	err := sh.run(line)
	if !sh.tracing {
		return err
	}
	var fresh []trace.MergedEvent
	last := sh.shown
	for _, e := range trace.Merge(sh.c.TraceStreams()) {
		if e.AbsTS > sh.shown {
			fresh = append(fresh, e)
			last = max(last, e.AbsTS)
		}
	}
	sh.shown = last
	if len(fresh) > 0 {
		trace.WriteTimeline(sh.out, fresh)
	}
	return err
}

func (sh *shell) run(line string) error {
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	f := strings.Fields(line)
	switch f[0] {
	case "help":
		fmt.Fprint(sh.out, `commands:
  read <node> <addr>            load a 64-bit word
  write <node> <addr> <value>   store a 64-bit word
  acquire <node> <lock>         exclusive lock
  acquires <node> <lock>        shared lock
  release <node> <lock>
  set <node> <event>            fire a set-once event
  wait <node> <event>           wait for an event
  barrier                       all nodes meet at barrier 0
  pages <node>                  page-table protections
  stats                         per-node protocol counters
  trace on|off                  print each command's event timeline
  quit
`)
	case "read":
		if len(f) != 3 {
			return fmt.Errorf("usage: read <node> <addr>")
		}
		n, err := sh.node(f[1])
		if err != nil {
			return err
		}
		addr, err := parseAddr(f[2])
		if err != nil {
			return err
		}
		v, err := n.ReadUint64(addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "[%#x] = %d (0x%x)\n", addr, v, v)
	case "write":
		if len(f) != 4 {
			return fmt.Errorf("usage: write <node> <addr> <value>")
		}
		n, err := sh.node(f[1])
		if err != nil {
			return err
		}
		addr, err := parseAddr(f[2])
		if err != nil {
			return err
		}
		v, err := strconv.ParseUint(f[3], 0, 64)
		if err != nil {
			return fmt.Errorf("bad value %q", f[3])
		}
		return n.WriteUint64(addr, v)
	case "acquire", "acquires", "release", "set", "wait":
		if len(f) != 3 {
			return fmt.Errorf("usage: %s <node> <id>", f[0])
		}
		n, err := sh.node(f[1])
		if err != nil {
			return err
		}
		id, err := strconv.Atoi(f[2])
		if err != nil {
			return fmt.Errorf("bad id %q", f[2])
		}
		switch f[0] {
		case "acquire":
			return n.Acquire(int32(id))
		case "acquires":
			return n.AcquireShared(int32(id))
		case "release":
			return n.Release(int32(id))
		case "set":
			return n.EventSet(int32(id))
		case "wait":
			return n.EventWait(int32(id))
		}
	case "barrier":
		errs := make(chan error, sh.c.N())
		for i := 0; i < sh.c.N(); i++ {
			go func(i int) { errs <- sh.c.Node(i).Barrier(0) }(i)
		}
		for i := 0; i < sh.c.N(); i++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		fmt.Fprintln(sh.out, "barrier complete")
	case "pages":
		if len(f) != 2 {
			return fmt.Errorf("usage: pages <node>")
		}
		n, err := sh.node(f[1])
		if err != nil {
			return err
		}
		tbl := n.Runtime().Table()
		shown := 0
		for i := 0; i < tbl.NumPages() && shown < 32; i++ {
			p := tbl.Page(mem.PageID(i))
			p.Lock()
			prot := p.Prot()
			owner := p.Owner
			p.Unlock()
			if prot == mem.Invalid && owner < 0 {
				continue
			}
			fmt.Fprintf(sh.out, "  page %3d  %-10s owner-hint=%d\n", i, prot, owner)
			shown++
		}
		if shown == 0 {
			fmt.Fprintln(sh.out, "  (no mapped pages)")
		}
	case "stats":
		fmt.Fprint(sh.out, stats.PerNodeReport(sh.c.Stats()))
	case "trace":
		if len(f) != 2 || (f[1] != "on" && f[1] != "off") {
			return fmt.Errorf("usage: trace on|off")
		}
		sh.tracing = f[1] == "on"
		sh.shown = time.Now().UnixNano()
	default:
		return fmt.Errorf("unknown command %q (try help)", f[0])
	}
	return nil
}
