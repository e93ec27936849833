#include "stream/applier.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "rir/registry.hpp"
#include "rpki/tal.hpp"

namespace droplens::stream {

namespace {

using svc::RovStatus;
using Interval = net::IntervalSet::Interval;
using DropSegment = net::SegmentMap<svc::Snapshot::DropInfo>::Segment;
using RovSegment = net::SegmentMap<uint8_t>::Segment;

constexpr uint64_t kSpaceEnd = uint64_t{1} << 32;

/// A live ROA's validation-relevant fields, gathered by the covering walk.
struct CoveringRoa {
  uint32_t asn;
  uint8_t max_length;
};

/// Append in address order, coalescing overlapping or adjacent intervals.
void append(std::vector<Interval>& out, const Interval& iv) {
  if (!out.empty() && iv.begin <= out.back().end) {
    out.back().end = std::max(out.back().end, iv.end);
  } else {
    out.push_back(iv);
  }
}

/// Append in address order, coalescing an adjacent equal-valued segment —
/// what keeps the spliced output maximally coalesced across seams.
template <typename Segment>
void append(std::vector<Segment>& out, const Segment& s) {
  if (s.begin >= s.end) return;
  if (!out.empty() && out.back().end == s.begin &&
      out.back().value == s.value) {
    out.back().end = s.end;
  } else {
    out.push_back(s);
  }
}

/// Splice: the pieces of `base` outside `regions` (clipped at the region
/// boundaries) and `build(region, out)` for each region, in address order.
/// `regions` are sorted and disjoint.
template <typename Piece, typename Build>
std::vector<Piece> splice(std::span<const Piece> base,
                          std::span<const net::Prefix> regions, Build&& build) {
  std::vector<Piece> out;
  out.reserve(base.size() + regions.size());
  // Base pieces overlapping [lo, hi): only the two ends need clipping and
  // a seam check — the base is canonical, so the pieces between them are
  // copied as they are.
  auto copy_base = [&](uint64_t lo, uint64_t hi) {
    auto first = std::upper_bound(
        base.begin(), base.end(), lo,
        [](uint64_t a, const Piece& piece) { return a < piece.end; });
    auto last = std::lower_bound(
        first, base.end(), hi,
        [](const Piece& piece, uint64_t b) { return piece.begin < b; });
    if (first == last) return;
    Piece head = *first;
    head.begin = std::max(head.begin, lo);
    head.end = std::min(head.end, hi);
    append(out, head);
    if (last - first > 1) {
      out.insert(out.end(), first + 1, last - 1);
      Piece tail = *(last - 1);
      tail.end = std::min(tail.end, hi);
      out.push_back(tail);
    }
  };
  uint64_t cursor = 0;
  for (const net::Prefix& r : regions) {
    copy_base(cursor, r.first());
    build(r, out);
    cursor = r.end();
  }
  copy_base(cursor, kSpaceEnd);
  return out;
}

/// The longest key of `live` that contains `q` (q itself included), or
/// end(). The largest key K <= q either contains q — then it is the longest
/// such key — or lies wholly before q; every key containing q is then no
/// longer than the leading bits K and q share, so the search continues
/// from q cut to that length. Each step shortens q: a few map searches
/// instead of one per ancestor length.
template <typename Map>
typename Map::const_iterator longest_covering(const Map& live, net::Prefix q) {
  for (;;) {
    auto it = live.upper_bound(q);
    if (it == live.begin()) return live.end();
    --it;
    if (it->first.contains(q)) return it;
    const int shared = std::countl_zero(
        static_cast<uint32_t>(it->first.first() ^ q.first()));
    q = net::Prefix::containing(q.network(), shared);
  }
}

/// The longest live strict ancestor of `r`, or end().
template <typename Map>
typename Map::const_iterator strict_ancestor(const Map& live,
                                             const net::Prefix& r) {
  return r.length() == 0 ? live.end() : longest_covering(live, r.parent());
}

/// Region builder for a boolean space keyed by prefix: all of `r` when a
/// live strict ancestor covers it, else the union of the live prefixes
/// inside `r` (a contiguous key range — CIDR blocks nest).
template <typename Map>
void build_space(const Map& live, const net::Prefix& r,
                 std::vector<Interval>& out) {
  if (strict_ancestor(live, r) != live.end()) {
    append(out, Interval{r.first(), r.end()});
    return;
  }
  for (auto it = live.lower_bound(r);
       it != live.end() && it->first.first() < r.end(); ++it) {
    append(out, Interval{it->first.first(), it->first.end()});
  }
}

/// Region builder for a valued space: one stack sweep over the live
/// prefixes inside `r` in key order (a block precedes the blocks it
/// contains). Each point takes the value of its innermost open block;
/// `outer` is what `r` inherits from its ancestors (empty: none), and
/// `open(enclosing, entry)` is a block's value given the one it nests in.
template <typename T, typename Map, typename Open>
void sweep(const Map& live, const net::Prefix& r, std::optional<T> outer,
           Open&& open,
           std::vector<typename net::SegmentMap<T>::Segment>& out) {
  using Segment = typename net::SegmentMap<T>::Segment;
  struct Frame {
    uint64_t end;
    std::optional<T> value;
  };
  Frame stack[34];  // r, then at most one contained block per length
  int top = 0;
  stack[0] = Frame{r.end(), std::move(outer)};
  uint64_t cursor = r.first();
  auto emit_to = [&](uint64_t end) {
    const Frame& f = stack[top];
    if (f.value) append(out, Segment{cursor, end, *f.value});
    cursor = end;
  };
  for (auto it = live.lower_bound(r);
       it != live.end() && it->first.first() < r.end(); ++it) {
    const net::Prefix& p = it->first;
    while (stack[top].end <= p.first()) {  // stack[0] (r) never closes here
      emit_to(stack[top].end);
      --top;
    }
    emit_to(p.first());
    stack[top + 1] = Frame{p.end(), open(stack[top].value, it->second)};
    ++top;
  }
  for (; top >= 0; --top) emit_to(stack[top].end);
}

}  // namespace

void Applier::seed_rir(const rir::Registry& registry) {
  rir_ = net::SegmentMap<uint8_t>();
  for (rir::Rir r : rir::kAllRirs) {
    for (const net::IntervalSet::Interval& iv :
         registry.administered(r).intervals()) {
      rir_.assign(iv.begin, iv.end, static_cast<uint8_t>(r));
    }
  }
  rir_.finalize();
  base_.reset();
  dirty_ = Dirty();
}

bool Applier::refresh_rov(const net::Prefix& p, LiveRoute& route) const {
  // The live ROAs a default-configured validator would consider for `p` —
  // what RoaArchive::covering(p, d, TalSet::defaults()) returns.
  constexpr rpki::TalSet kDefaults = rpki::TalSet::defaults();
  std::vector<CoveringRoa> covering;
  roas_.for_each_covering(
      p, [&](const net::Prefix&, const std::vector<RoaEntry>& entries) {
        for (const RoaEntry& r : entries) {
          if (kDefaults.has(static_cast<rpki::Tal>(r.tal))) {
            covering.push_back(CoveringRoa{r.asn, r.max_length});
          }
        }
      });

  RovStatus worst = RovStatus::kNotFound;
  if (!covering.empty()) {
    for (const ActiveRoute& active : route.entries) {
      bool valid = false;
      for (const CoveringRoa& roa : covering) {
        // RFC 6811 match; an AS0 ROA never matches (it only invalidates).
        if (roa.asn != 0 && active.origin == roa.asn &&
            p.length() <= roa.max_length) {
          valid = true;
          break;
        }
      }
      if (!valid) {
        worst = RovStatus::kInvalid;
        break;
      }
      worst = RovStatus::kValid;
    }
  }
  const uint8_t before = route.rov;
  route.rov = static_cast<uint8_t>(worst);
  return route.rov != before;
}

void Applier::refresh_covered(const net::Prefix& p) {
  // Announced prefixes contained in `p` form the contiguous key range
  // [lower_bound(p), first() < p.end()): CIDR blocks nest, so no key in
  // that range can escape `p` (see header).
  for (auto it = routes_.lower_bound(p);
       it != routes_.end() && it->first.first() < p.end(); ++it) {
    if (refresh_rov(it->first, it->second)) mark(dirty_.rov, it->first);
  }
}

bool Applier::apply(const Event& e) {
  switch (e.type) {
    case EventType::kBgpAnnounce: {
      auto [it, inserted] = routes_.try_emplace(e.prefix);
      it->second.entries.push_back(ActiveRoute{e.date, e.value});
      if (refresh_rov(e.prefix, it->second) || inserted) {
        mark(dirty_.rov, e.prefix);
      }
      if (inserted) mark(dirty_.routed, e.prefix);
      break;
    }
    case EventType::kBgpWithdraw: {
      auto it = routes_.find(e.prefix);
      if (it == routes_.end()) break;
      auto& entries = it->second.entries;
      auto victim = entries.end();
      for (auto r = entries.begin(); r != entries.end(); ++r) {
        if (r->origin != e.value) continue;
        if (victim == entries.end() || r->begin < victim->begin) victim = r;
      }
      if (victim == entries.end()) break;
      entries.erase(victim);
      if (entries.empty()) {
        routes_.erase(it);
        mark(dirty_.routed, e.prefix);
        mark(dirty_.rov, e.prefix);
      } else if (refresh_rov(e.prefix, it->second)) {
        mark(dirty_.rov, e.prefix);
      }
      ++applied_;
      return true;
    }
    case EventType::kRoaAdd: {
      roas_[e.prefix].push_back(
          RoaEntry{e.value, e.aux, e.aux2});
      if (e.value == 0) mark(dirty_.as0, e.prefix);
      refresh_covered(e.prefix);
      break;
    }
    case EventType::kRoaRemove: {
      std::vector<RoaEntry>* entries = roas_.find(e.prefix);
      if (!entries) break;
      auto it = std::find_if(entries->begin(), entries->end(),
                             [&](const RoaEntry& r) {
                               return r.asn == e.value && r.max_length == e.aux &&
                                      r.tal == e.aux2;
                             });
      if (it == entries->end()) break;
      entries->erase(it);
      if (entries->empty()) roas_.erase(e.prefix);
      if (e.value == 0) mark(dirty_.as0, e.prefix);
      refresh_covered(e.prefix);
      ++applied_;
      return true;
    }
    case EventType::kDropAdd: {
      drop_[e.prefix].push_back(DropListing{e.aux, e.aux2});
      mark(dirty_.drop, e.prefix);
      break;
    }
    case EventType::kDropRemove: {
      auto it = drop_.find(e.prefix);
      if (it == drop_.end()) break;
      auto& listings = it->second;
      auto match = std::find_if(listings.begin(), listings.end(),
                                [&](const DropListing& l) {
                                  return l.categories == e.aux &&
                                         l.incident == e.aux2;
                                });
      if (match == listings.end()) break;
      listings.erase(match);
      if (listings.empty()) drop_.erase(it);
      mark(dirty_.drop, e.prefix);
      ++applied_;
      return true;
    }
    case EventType::kIrrAdd: {
      if (++irr_[e.prefix] == 1) mark(dirty_.irr, e.prefix);
      break;
    }
    case EventType::kIrrRemove: {
      auto it = irr_.find(e.prefix);
      if (it == irr_.end()) break;
      if (--it->second == 0) {
        irr_.erase(it);
        mark(dirty_.irr, e.prefix);
      }
      ++applied_;
      return true;
    }
    case EventType::kDelegationAdd: {
      if (++alloc_[e.prefix] == 1) mark(dirty_.allocated, e.prefix);
      break;
    }
    case EventType::kDelegationRemove: {
      auto it = alloc_.find(e.prefix);
      if (it == alloc_.end()) break;
      if (--it->second == 0) {
        alloc_.erase(it);
        mark(dirty_.allocated, e.prefix);
      }
      ++applied_;
      return true;
    }
    default:
      // Flat-diff assertions and unknown types never touch live state.
      break;
  }
  if (e.type == EventType::kBgpAnnounce || e.type == EventType::kRoaAdd ||
      e.type == EventType::kDropAdd || e.type == EventType::kIrrAdd ||
      e.type == EventType::kDelegationAdd) {
    ++applied_;
    return true;
  }
  ++rejected_;
  return false;
}

std::vector<net::Prefix> Applier::take_regions(
    std::vector<net::Prefix>& dirty) {
  std::vector<net::Prefix> regions;
  if (!base_) {
    regions.emplace_back();  // 0.0.0.0/0: the whole space
  } else {
    // Sorted by (network, length), a prefix contained in an earlier kept
    // one follows it directly; what is left is laminar, hence disjoint.
    std::sort(dirty.begin(), dirty.end());
    for (const net::Prefix& p : dirty) {
      if (regions.empty() || !regions.back().contains(p)) regions.push_back(p);
    }
  }
  dirty.clear();
  last_compact_regions_ += regions.size();
  return regions;
}

std::shared_ptr<const svc::Snapshot> Applier::compact(net::Date d,
                                                      uint64_t version) {
  last_compact_regions_ = 0;
  // Each substrate: no region copies the base as it is; otherwise splice.
  auto space = [&](std::vector<net::Prefix>& dirty,
                   const net::IntervalSet* base, auto&& build) {
    const std::vector<net::Prefix> regions = take_regions(dirty);
    if (regions.empty()) return *base;
    return net::IntervalSet::from_sorted(splice<Interval>(
        base ? base->intervals() : std::span<const Interval>(), regions,
        build));
  };
  auto valued = [&](std::vector<net::Prefix>& dirty, const auto* base,
                    auto&& build) {
    using Map = std::remove_cvref_t<decltype(*base)>;
    using Segment = typename Map::Segment;
    const std::vector<net::Prefix> regions = take_regions(dirty);
    if (regions.empty()) return *base;
    return Map::from_segments(splice<Segment>(
        base ? base->segments() : std::span<const Segment>(), regions, build));
  };
  const svc::Snapshot* base = base_.get();

  net::IntervalSet routed =
      space(dirty_.routed, base ? &base->routed() : nullptr,
            [&](const net::Prefix& r, std::vector<Interval>& out) {
              build_space(routes_, r, out);
            });
  net::IntervalSet allocated =
      space(dirty_.allocated, base ? &base->allocated() : nullptr,
            [&](const net::Prefix& r, std::vector<Interval>& out) {
              build_space(alloc_, r, out);
            });
  net::IntervalSet irr =
      space(dirty_.irr, base ? &base->irr() : nullptr,
            [&](const net::Prefix& r, std::vector<Interval>& out) {
              build_space(irr_, r, out);
            });
  // AS0 lives in the ROA trie: the path walk finds covering AS0 ROAs, the
  // subtree walk (prefix order, parents first) the contained ones.
  auto any_as0 = [](const std::vector<RoaEntry>& entries) {
    return std::any_of(entries.begin(), entries.end(),
                       [](const RoaEntry& r) { return r.asn == 0; });
  };
  net::IntervalSet as0 = space(
      dirty_.as0, base ? &base->as0() : nullptr,
      [&](const net::Prefix& r, std::vector<Interval>& out) {
        bool covered = false;
        roas_.for_each_covering(
            r, [&](const net::Prefix& p, const std::vector<RoaEntry>& e) {
              covered = covered || (p.length() < r.length() && any_as0(e));
            });
        if (covered) {
          append(out, Interval{r.first(), r.end()});
          return;
        }
        roas_.for_each_covered(
            r, [&](const net::Prefix& p, const std::vector<RoaEntry>& e) {
              if (any_as0(e)) append(out, Interval{p.first(), p.end()});
            });
      });

  // DROP labels: OR over every live listing covering a point, exactly the
  // batch merge. Live listings of one prefix all carry the DropIndex
  // entry's (whole-history) bits, so the OR equals what compile_snapshot
  // paints for a listed day.
  using DropInfo = svc::Snapshot::DropInfo;
  auto with_listings = [](std::optional<DropInfo> info,
                          const std::vector<DropListing>& listings) {
    DropInfo merged = info.value_or(DropInfo{});
    for (const DropListing& l : listings) {
      merged.categories |= l.categories;
      merged.incident |= l.incident;
    }
    return std::optional<DropInfo>(merged);
  };
  net::SegmentMap<DropInfo> drop = valued(
      dirty_.drop, base ? &base->drop() : nullptr,
      [&](const net::Prefix& r, std::vector<DropSegment>& out) {
        std::optional<DropInfo> outer;
        for (auto a = strict_ancestor(drop_, r); a != drop_.end();
             a = strict_ancestor(drop_, a->first)) {
          outer = with_listings(outer, a->second);
        }
        sweep(drop_, r, outer, with_listings, out);
      });

  // ROV: longest match — the innermost announced block's status wins.
  net::SegmentMap<uint8_t> rov = valued(
      dirty_.rov, base ? &base->rov() : nullptr,
      [&](const net::Prefix& r, std::vector<RovSegment>& out) {
        auto a = strict_ancestor(routes_, r);
        std::optional<uint8_t> outer;
        if (a != routes_.end()) outer = a->second.rov;
        sweep(routes_, r, outer,
              [](const std::optional<uint8_t>&, const LiveRoute& route) {
                return std::optional<uint8_t>(route.rov);
              },
              out);
      });

  base_ = std::make_shared<const svc::Snapshot>(
      version, d, /*degraded=*/0, std::move(routed), std::move(as0),
      std::move(irr), std::move(allocated), std::move(drop), std::move(rov),
      rir_);
  return base_;
}

}  // namespace droplens::stream
