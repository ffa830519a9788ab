// Package loadgen is the open-loop load harness behind cmd/qbload: it
// drives K simulated tenants × M repro.Clients against a qbcloud (a real
// remote binary, an in-test wire.Cloud, or a fully in-process cloud) with
// Zipf-skewed value selection, a configurable read/write mix, and a paced
// open-loop arrival schedule, recording per-operation latency into
// log-linear histograms and reporting p50/p95/p99/max latency plus
// achieved QPS per tenant and in aggregate.
//
// The pieces compose but stand alone:
//
//   - Histogram: fixed-bucket log-linear latency histogram, atomic,
//     mergeable, ~1.6% worst-case quantisation error.
//   - Pacer: open-loop arrival scheduler over an injectable wire.Clock;
//     late arrivals keep their original due times, so latency measured
//     from the schedule captures queueing delay instead of hiding it
//     (the coordinated-omission correction; see docs/BENCHMARKS.md).
//   - Generator: deterministic per-client op stream (Zipf or uniform
//     selection, read/write mix, write-partition rules).
//   - Run: the tenants × clients driver with an optional result checker
//     that bounds every returned result set against the sequential
//     reference (baseline counts plus acknowledged-write arithmetic),
//     sound under concurrency and under chaos kill/restart.
//   - CloudProc: boots, kills and restarts a real qbcloud or qbring
//     binary — the chaos machinery cmd/qbload and bench/ share.
//
// A run prints a scoreboard (Result.WriteTable). The numbers that gate a
// PR come from `go run ./bench`, which reuses CloudProc, Pacer and
// Generator from here.
package loadgen
