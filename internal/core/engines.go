package core

import (
	"fmt"

	"repro/internal/dsync"
	"repro/internal/nodecore"
	"repro/internal/proto/classic"
	"repro/internal/proto/ec"
	"repro/internal/proto/erc"
	"repro/internal/proto/lrc"
	"repro/internal/proto/sc"
)

// buildEngine constructs the protocol engine (and optional sync
// hooks) for one node.
func (c *Cluster) buildEngine(rt *nodecore.Runtime, svc *dsync.Service) (nodecore.Engine, dsync.Hooks, error) {
	switch c.cfg.Protocol {
	case SCCentral:
		return sc.New(rt, sc.Config{Locator: sc.Central, BreakCoherence: c.cfg.BreakCoherence}), nil, nil
	case SCFixed:
		return sc.New(rt, sc.Config{Locator: sc.Fixed, BreakCoherence: c.cfg.BreakCoherence}), nil, nil
	case SCDynamic:
		return sc.New(rt, sc.Config{Locator: sc.Dynamic, BreakCoherence: c.cfg.BreakCoherence}), nil, nil
	case SCBroadcast:
		return sc.New(rt, sc.Config{Locator: sc.Broadcast, BreakCoherence: c.cfg.BreakCoherence}), nil, nil
	case Migrate:
		return sc.New(rt, sc.Config{Locator: sc.Dynamic, Migrate: true, BreakCoherence: c.cfg.BreakCoherence}), nil, nil
	case CentralServer:
		return classic.NewServer(rt), nil, nil
	case FullReplication:
		return classic.NewReplicated(rt), nil, nil
	case ERCInvalidate:
		e := erc.New(rt, erc.Inval)
		return e, e, nil
	case ERCUpdate:
		e := erc.New(rt, erc.Update)
		return e, e, nil
	case LRC:
		e := lrc.New(rt, c.cfg.LRCBarrierGC)
		return e, e, nil
	case HLRC:
		e := lrc.NewHomeBased(rt)
		return e, e, nil
	case EC, ECDiff:
		e := ec.New(rt, c.BindingsOf, c.cfg.Protocol == ECDiff)
		return e, e, nil
	default:
		return nil, nil, fmt.Errorf("core: protocol %v not wired", c.cfg.Protocol)
	}
}
