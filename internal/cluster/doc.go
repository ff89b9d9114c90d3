// Package cluster is flovd's job plane. A persistent store on one
// directory holds every job; front doors admit jobs into it (tenant
// quotas, rate limits, dedup) and serve resumable client streams that
// replay a job's event feed from it; workers lease jobs from it,
// execute them through the existing sweep.Engine, and work-steal each
// other's preempted slices by adopting checkpoint snapshots when a
// lease expires. Single-node flovd is one front door and one in-process
// worker over one store; more processes on a shared store form a
// cluster, with the same code paths and the same wire format.
//
// The correctness contract is byte-identical determinism: the same spec
// produces the same result rows whether it ran on one node, on three,
// or was stolen mid-slice, because every row is a deterministic
// function of its sweep.Job and checkpoint restore is byte-exact
// (internal/snapshot's acceptance gate). That contract is what makes
// the design simple — a lease race that double-executes a point wastes
// CPU but cannot corrupt results, so leases only need to be atomic, not
// perfectly fenced.
//
// Store layout (one directory, shared by local mounts or a single
// machine's processes):
//
//	jobs/<id>.json        job record, published by atomic link (idempotent submit)
//	jobs/<id>.done.json   terminal marker, first writer wins
//	jobs/<id>.cancel      cancel request (reason), observed by the job's worker
//	jobs/<id>.pin         fire-and-forget owner: no stream abandonment
//	leases/<id>.<epoch>   lease epochs, claimed by atomic hard link
//	rows/<id>.ndjson      finished rows, append-only, torn-tail tolerant
//	events/<id>.ndjson    job event feed, append-only (stream replay)
//	results/<id>.json     canonical final row set, written once at completion
//	snaps/<id>/<n>.snap   mid-run checkpoints of preempted points
//
// Everything wall-clock (leases, deadlines, polling, metrics) lives
// here and in cmd/flovd; simulation packages stay on cycle time —
// flovlint pins that, with internal/cluster allowlisted.
package cluster
