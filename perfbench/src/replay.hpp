// Layer replays for the traced run. Server::serve does its decode, store
// resolution, search, per-field counting, encode and per-frame bookkeeping
// internally, where the
// benchmark cannot put a span without changing the program. So after a
// traced load phase, each traced frame is served again, on its own: once
// through Server::serve, and once through the same public functions in the
// same order Server::serve calls them, with a span around each call. The
// layer spans should add up to the in-process Server::serve; how much
// longer the live serve took shows what load and cold caches cost.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/snapshot.hpp"
#include "svc/snapshot_store.hpp"
#include "trace.hpp"

namespace droplens::util {
class ThreadPool;
}

namespace perfbench {

/// Per-layer totals accumulated over replayed frames.
struct LayerTotals {
  double fixed_ns = 0;  // Server::serve's fixed cost per frame
  size_t fixed_frames = 0;
  double decode_ns = 0;
  double encode_ns = 0;
  size_t decoded_queries = 0;
  size_t encoded_answers = 0;
  double store_ns = 0;
  size_t store_gets = 0;
  double search_ns[7] = {0, 0, 0, 0, 0, 0, 0};  // kSubstrates order
  double lookup_batch_ns = 0;
  size_t searched_queries = 0;
  double count_ns = 0;
  size_t counted_queries = 0;
};

/// Substrate names in the order of LayerTotals::search_ns.
extern const char* const kSubstrates[7];

class Replayer {
 public:
  Replayer(droplens::svc::SnapshotStore& store, droplens::svc::Server& server,
           droplens::util::ThreadPool* pool, Trace& trace);

  /// Replay one request frame (query, range or stats) under its live serve
  /// span: an in-process Server::serve of the frame as a "serve.replayed"
  /// span, and one span per layer call under it, both after an untimed
  /// serve of the frame has warmed its data. Returns the response the layer
  /// calls built. For query and range
  /// frames that is the live serve's response byte for byte, which callers
  /// check, so these spans cannot drift from what Server::serve does
  /// unnoticed.
  std::string replay_frame(uint64_t request, uint64_t live_serve,
                           const std::string& frame);

  /// The search split of one query batch against one snapshot: each
  /// substrate's batched search over the batch, then Snapshot::lookup_batch
  /// over the same batch. A root span "lookup_batch" with the searches as
  /// children, so its self time is the per-lane assembly.
  void search_split(uint64_t request, const droplens::svc::Snapshot& snap,
                    const std::vector<droplens::svc::Query>& queries);

  const LayerTotals& totals() const { return totals_; }

 private:
  /// Server::store_get's resolution: the live head for its own date, else
  /// the store.
  std::shared_ptr<const droplens::svc::Snapshot> resolve(droplens::net::Date d);
  /// The layer calls of one frame, as spans under `serve_span`.
  std::string replay_layers(uint64_t request, uint64_t serve_span,
                            const std::string& frame);
  /// Server::serve's counting of `n` answered lookups asking for `fields`
  /// each, on counters of a private registry (the live one stays as the
  /// load left it), as a "count" span under `serve_span`.
  void count(uint64_t request, uint64_t serve_span,
             const std::vector<uint8_t>& fields);

  droplens::svc::SnapshotStore& store_;
  droplens::svc::Server& server_;
  droplens::util::ThreadPool* pool_;
  Trace& trace_;
  LayerTotals totals_;
  droplens::obs::Registry registry_;
  droplens::obs::Counter queries_;
  std::array<droplens::obs::Counter, droplens::svc::kFieldCount> field_lookups_;
};

}  // namespace perfbench
