// Package godsm is a complete software distributed shared memory
// (DSM) system in pure Go: a simulated cluster of nodes with private
// paged memories and a software MMU, joined by a message-passing
// network into one shared address space, implementing the classic
// DSM protocol space — sequentially consistent write-invalidate with
// four page-locating strategies (IVY), page migration, central
// server, full replication with write-update, eager release
// consistency with twins and diffs (Munin), lazy release consistency
// (TreadMarks), and entry consistency (Midway) — plus a distributed
// lock and barrier service with consistency-payload piggybacking.
//
// The public API lives in internal/core (Cluster, Node, Config); the
// workload suite in internal/apps; the one run lifecycle —
// cluster.Run(Spec), on the simulator or real TCP — in
// internal/cluster; the experiments, as tables over it, in
// internal/bench, driven by cmd/dsmbench. See README.md for a tour,
// DESIGN.md for the architecture, and EXPERIMENTS.md for the
// reproduced results.
package godsm
