// The three workloads and the per-layer helpers they share.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "replay.hpp"
#include "svc/snapshot_store.hpp"

namespace perfbench {

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 3;
/// Largest share of a replayed serve or ingest its layer spans may leave
/// uncovered, in aggregate, before a traced run fails. Measured: -0.04 to
/// 0.01 on fulltable-query, 0.02 on window-mixed, 0.07 on live-follow.
inline constexpr double kAddUpTolerance = 0.20;

/// One pass of each workload. Untraced passes fill Result::e2e (and
/// Result::extra); traced passes also fill Result::layers.
Result run_fulltable(const Options& opt, bool traced);
Result run_window(const Options& opt, bool traced);
Result run_live(const Options& opt, bool traced);

/// net.search_ns.*, svc.snapshot.* and svc.protocol.* from replay totals.
void add_search_layers(Result& res, const LayerTotals& t);

/// svc.store.* counters of the serving store.
void add_store_layers(Result& res,
                      const droplens::svc::SnapshotStore::Stats& st);

/// The add-up check over the replayed requests: per request, the `layers`
/// children of its `parent` span against the parent's duration.
/// trace.add_up_remainder is the aggregate share of parent time no layer
/// covers, trace.add_up_within the share of requests within `tol`. An
/// aggregate remainder beyond `tol` fails the run.
void add_add_up(Result& res, const Trace& trace,
                const std::vector<uint64_t>& requests, const std::string& parent,
                const std::vector<std::string>& layers, double tol);

/// The layers every traced pass reports the same way: svc.transport.shed,
/// .disconnects and .inflight_peak, util.pool.tasks and trace.spans. Also
/// writes the spans to <work_dir>/trace-<workload>.jsonl.
void add_phase_layers(Result& res, const droplens::svc::EpollServer& edge,
                      const TracedPhase& probe, const Trace& trace,
                      const Options& opt, const std::string& workload);

}  // namespace perfbench
