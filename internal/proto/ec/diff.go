package ec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/wire"
)

// Diff-grant mode (Midway ships fine-grained updates rather than
// whole objects; this is the equivalent at byte-range granularity).
//
// Each exclusive holder snapshots the bound ranges at acquire and, at
// release, records a diff of what it changed, tagged with the new
// version. The diff log *travels with the lock*: a grant to an
// acquirer at version u carries the retained log suffix — the
// acquirer applies the (u, cur] part and keeps the whole suffix so it
// can serve later, more out-of-date acquirers. When the log no longer
// reaches back to the acquirer's version, the grant falls back to a
// full copy of the bound ranges. The log is pruned to maxLogVersions.

const maxLogVersions = 16

// Grant payload mode tags.
const (
	grantEmpty byte = iota // acquirer is current: version only
	grantFull              // full contents of every bound range
	grantDiffs             // version-tagged diff log suffix
)

// verDiff is one version's change to the concatenated bound ranges.
type verDiff struct {
	ver  uint64
	diff []byte
}

// lockLog is the per-lock diff state at the current/last holder.
type lockLog struct {
	snap []byte    // bound-range contents as of the version we acquired
	log  []verDiff // contiguous versions ending at ver[lock]
}

func rangesLen(ranges []Range) int {
	total := 0
	for _, r := range ranges {
		total += r.Len
	}
	return total
}

// concatRanges reads all bound ranges into one contiguous buffer (the
// diff domain).
func (e *Engine) concatRanges(ranges []Range) []byte {
	buf := make([]byte, rangesLen(ranges))
	off := 0
	for _, r := range ranges {
		e.readLocal(r.Addr, buf[off:off+r.Len])
		off += r.Len
	}
	return buf
}

// scatterRanges writes a contiguous buffer back into the bound ranges.
func (e *Engine) scatterRanges(ranges []Range, buf []byte) {
	off := 0
	for _, r := range ranges {
		e.writeLocal(r.Addr, buf[off:off+r.Len])
		off += r.Len
	}
}

// appendLog encodes the travelling log: uvarint count, count ×
// { uvarint version, uvarint len, len bytes }.
func appendLog(buf []byte, log []verDiff) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(log)))
	for _, d := range log {
		buf = wire.AppendBytes(binary.AppendUvarint(buf, d.ver), d.diff)
	}
	return buf
}

// decodeLog reads what appendLog wrote; the diffs are copied out of the
// message, which they outlive.
func decodeLog(d *wire.Dec) []verDiff {
	var log []verDiff
	for n := d.Count(); n > 0 && d.Ok(); n-- {
		log = append(log, verDiff{ver: d.Uvarint(), diff: append([]byte(nil), d.Bytes()...)})
	}
	return log
}

// buildDiffGrant encodes the grant for an acquirer at acqVer given
// current version cur: u64 version, mode tag, then for grantFull the
// length-prefixed contents of the bound ranges, then the log. Caller
// holds e.mu.
func (e *Engine) buildDiffGrant(lock int32, acqVer, cur uint64, ranges []Range) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, cur)
	var log []verDiff
	if ll := e.logs[lock]; ll != nil {
		log = ll.log
	}
	if len(log) > 0 && acqVer >= log[0].ver-1 {
		// The log reaches back far enough: ship the whole retained
		// suffix (the acquirer keeps it to serve older nodes later);
		// the acquirer applies the part newer than its own version.
		return appendLog(append(buf, grantDiffs), log)
	}
	// Fall back to a full copy — but still attach the retained log
	// (history the full data already includes, so the acquirer applies
	// none of it): the travelling log must survive full-copy handoffs
	// or the diff path could never bootstrap.
	return appendLog(wire.AppendBytes(append(buf, grantFull), e.concatRanges(ranges)), log)
}

// diffGrant is a decoded diff-mode grant. mode is grantEmpty for a
// version-only payload; full aliases the payload.
type diffGrant struct {
	ver  uint64
	mode byte
	full []byte
	log  []verDiff
}

func decodeDiffGrant(payload []byte) (g diffGrant, err error) {
	if len(payload) < 8 {
		return g, fmt.Errorf("short grant payload (%d bytes)", len(payload))
	}
	g.ver = binary.LittleEndian.Uint64(payload)
	if len(payload) == 8 {
		return g, nil
	}
	g.mode = payload[8]
	d := wire.NewDec(payload[9:])
	switch g.mode {
	case grantFull:
		g.full = d.Bytes()
	case grantDiffs:
	default:
		return g, fmt.Errorf("unknown grant mode %d", g.mode)
	}
	g.log = decodeLog(&d)
	return g, d.Done()
}

// applyDiffGrant decodes and installs a diff-mode grant payload.
// Returns the granted version. Caller holds e.mu.
func (e *Engine) applyDiffGrant(lock int32, payload []byte, ranges []Range) (uint64, error) {
	g, err := decodeDiffGrant(payload)
	if err != nil {
		return 0, err
	}
	switch g.mode {
	case grantFull:
		if len(g.full) != rangesLen(ranges) {
			return 0, fmt.Errorf("full-copy grant of lock %d carries %d bytes, %d are bound", lock, len(g.full), rangesLen(ranges))
		}
		e.scatterRanges(ranges, g.full)
		e.logs[lock] = &lockLog{snap: append([]byte(nil), g.full...), log: g.log}
		e.rt.Stats().UpdatesApplied.Add(1)
	case grantDiffs:
		cur := e.concatRanges(ranges)
		for _, d := range g.log {
			if d.ver > e.ver[lock] {
				if err := mem.ApplyDiff(cur, d.diff); err != nil {
					return 0, fmt.Errorf("applying lock %d diff v%d: %w", lock, d.ver, err)
				}
				e.rt.Stats().UpdatesApplied.Add(1)
			}
		}
		e.scatterRanges(ranges, cur)
		e.logs[lock] = &lockLog{snap: cur, log: g.log}
	}
	return g.ver, nil
}

// recordRelease appends this holder's own diff to the travelling log.
// Caller holds e.mu; called on exclusive release after the version
// bump to newVer.
func (e *Engine) recordRelease(lock int32, newVer uint64, ranges []Range) {
	ll := e.logs[lock]
	if ll == nil || ll.snap == nil {
		// We never installed a snapshot (e.g. we are the very first
		// holder); start one now so the next release can diff.
		e.logs[lock] = &lockLog{snap: e.concatRanges(ranges)}
		return
	}
	cur := e.concatRanges(ranges)
	diff := mem.CreateDiff(ll.snap, cur)
	e.rt.Stats().DiffsCreated.Add(1)
	e.rt.Stats().DiffBytes.Add(int64(len(diff)))
	ll.log = append(ll.log, verDiff{ver: newVer, diff: diff})
	if len(ll.log) > maxLogVersions {
		ll.log = ll.log[len(ll.log)-maxLogVersions:]
	}
	ll.snap = cur
}
