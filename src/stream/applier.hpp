// Incremental state machine from events to query-service snapshots.
//
// The batch pipeline compiles a day by scanning every substrate end to end
// (svc::compile_snapshot). The Applier maintains the same state *live*: each
// event mutates small keyed stores (active routes, live ROAs, DROP listings,
// IRR objects, allocations), and compact() folds them into a flat
// svc::Snapshot — byte-identical to what compile_snapshot would build for
// the same day, which tests/test_stream.cpp pins structure by structure.
//
// Incremental compaction. apply() marks, per substrate, the prefixes whose
// contribution changed (a route appearing or vanishing, a route's ROV status
// flipping, an AS0 ROA, a DROP listing, an IRR object or delegation coming or
// going). compact() keeps the previous snapshot as its base and splices:
//  - Dirty regions are laminar. CIDR blocks either nest or are disjoint, so
//    sorting the dirty prefixes and dropping every one contained in an
//    earlier one leaves sorted, disjoint regions. A point outside every
//    region is covered by no changed prefix, so its value in the base is
//    still its value now.
//  - Inside a region R the value at a point depends only on live prefixes
//    that contain it: R's strict ancestors (one covering lookup) and the
//    live prefixes inside R (one ordered range, parents before children).
//    A boolean space takes R whole or the union of its contained prefixes;
//    ROV and DROP take one stack sweep over the contained prefixes, seeded
//    with the longest ancestor's status (ROV) or all ancestors' OR (DROP).
//  - Canonical seams. Base pieces are clipped to the gaps between regions
//    and appended, in address order, through the same coalescing step as
//    the rebuilt pieces, so the output is the canonical (sorted, maximally
//    coalesced) form of the current point-function: the unique form
//    compile_snapshot's IntervalSet and SegmentMap::finalize produce too.
// With no base (the first compaction, or after seed_rir) the single region
// is the whole space [0, 2^32): one builder, no separate full-rebuild path.
// The RIR paint is static (administered blocks), seeded once.
//
// ROV is recomputed incrementally: a BGP event refreshes its own prefix; a
// ROA event refreshes every announced prefix the ROA covers (an ordered-map
// range scan — contained keys are exactly [lower_bound(p), first() <
// p.end()), the nested-block property of CIDR).
//
// Threading: the Applier is single-writer, externally synchronized (the
// Publisher owns one and serializes apply/compact). compact() returns an
// immutable shared snapshot; readers never touch the live stores.
//
// Flat-diff event types (kRovSet family, see stream/event.hpp) assert
// derived state the Applier computes itself — apply() rejects them.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/interval_set.hpp"
#include "net/prefix_trie.hpp"
#include "net/segment_map.hpp"
#include "stream/event.hpp"
#include "svc/snapshot.hpp"

namespace droplens::rir {
class Registry;
}  // namespace droplens::rir

namespace droplens::stream {

class Applier {
 public:
  Applier() = default;

  /// Paint the administering-RIR map from the registry's static administered
  /// blocks. Call once before the first compact(); delegation *allocations*
  /// flow through events, the administered carve-up does not change. Drops
  /// the compaction base, so the next compact() rebuilds the whole space.
  void seed_rir(const rir::Registry& registry);

  /// Apply one event to the live state. Returns false for events that do
  /// not apply: flat-diff assertion types, and removals with no matching
  /// live entry (a hostile or replayed-out-of-order stream must not corrupt
  /// state). BGP and ROA events refresh the affected ROV statuses.
  bool apply(const Event& e);

  /// Fold the live state into an immutable snapshot for day `d` —
  /// byte-identical to svc::compile_snapshot(study, index, d, version) once
  /// every event up to and including day `d` has been applied. Splices the
  /// previous compaction's snapshot, rebuilding only the regions events
  /// dirtied since (see header), and keeps the result as the next base.
  std::shared_ptr<const svc::Snapshot> compact(net::Date d, uint64_t version);

  /// Regions the last compact() rebuilt, summed over the six spliced
  /// substrates (a whole-space rebuild counts one per substrate).
  size_t last_compact_regions() const { return last_compact_regions_; }

  uint64_t applied() const { return applied_; }
  uint64_t rejected() const { return rejected_; }
  size_t announced_prefixes() const { return routes_.size(); }

 private:
  struct ActiveRoute {
    net::Date begin;
    uint32_t origin;
  };
  struct LiveRoute {
    std::vector<ActiveRoute> entries;
    uint8_t rov = 0;  // svc::RovStatus of this prefix's active origins
  };
  struct RoaEntry {
    uint32_t asn;
    uint8_t max_length;
    uint8_t tal;  // rpki::Tal index
  };
  struct DropListing {
    uint8_t categories;
    uint8_t incident;
  };

  /// Prefixes whose contribution to each spliced substrate changed since
  /// the last compaction (unsorted, may repeat).
  struct Dirty {
    std::vector<net::Prefix> routed, as0, irr, allocated, drop, rov;
  };

  /// Recompute the ROV status of `route` (keyed by `p`) against the live
  /// ROA set — the exact RFC 6811 worst-of fold compile_snapshot runs.
  /// Returns true when the status changed.
  bool refresh_rov(const net::Prefix& p, LiveRoute& route) const;
  /// Refresh every announced prefix contained in `p` (ROA added/removed),
  /// marking the ones whose status changed.
  void refresh_covered(const net::Prefix& p);
  /// Record `p` as dirty. Before the first compaction there is no base to
  /// splice into, so nothing is recorded: that compaction rebuilds it all.
  void mark(std::vector<net::Prefix>& dirty, const net::Prefix& p) {
    if (base_) dirty.push_back(p);
  }
  /// The regions to rebuild for one substrate — normalized `dirty`, or the
  /// whole space with no base — and clear `dirty`.
  std::vector<net::Prefix> take_regions(std::vector<net::Prefix>& dirty);

  uint64_t applied_ = 0;
  uint64_t rejected_ = 0;

  /// Announced prefixes with their active episodes and cached ROV status.
  std::map<net::Prefix, LiveRoute> routes_;
  /// Live ROAs keyed by ROA prefix — covering walks drive validation.
  net::PrefixMap<std::vector<RoaEntry>> roas_;
  /// Live DROP listings per prefix (overlaps keep their own label bits).
  std::map<net::Prefix, std::vector<DropListing>> drop_;
  /// Live IRR route-object count per prefix (origin is irrelevant to the
  /// covered-space answer, so a count suffices).
  std::map<net::Prefix, uint32_t> irr_;
  /// Live delegation count per prefix.
  std::map<net::Prefix, uint32_t> alloc_;
  /// Static administering-RIR paint (seed_rir), copied into every snapshot.
  net::SegmentMap<uint8_t> rir_;

  /// The last compaction's snapshot: what compact() splices into.
  std::shared_ptr<const svc::Snapshot> base_;
  Dirty dirty_;
  size_t last_compact_regions_ = 0;
};

}  // namespace droplens::stream
