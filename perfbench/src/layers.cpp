#include <algorithm>
#include <filesystem>
#include <set>

#include "workloads.hpp"

namespace perfbench {

void add_search_layers(Result& res, const LayerTotals& t) {
  if (t.searched_queries > 0) {
    const double n = static_cast<double>(t.searched_queries);
    double searches = 0;
    for (int s = 0; s < 7; ++s) {
      res.add_layer(std::string("net.search_ns.") + kSubstrates[s], "ns",
                    t.search_ns[s] / n, t.searched_queries);
      searches += t.search_ns[s];
    }
    res.add_layer("svc.snapshot.lookup_batch_ns", "ns", t.lookup_batch_ns / n,
                  t.searched_queries);
    res.add_layer("svc.snapshot.assemble_ns", "ns",
                  (t.lookup_batch_ns - searches) / n, t.searched_queries);
  }
  if (t.decoded_queries > 0) {
    res.add_layer("svc.protocol.decode_ns", "ns",
                  t.decode_ns / static_cast<double>(t.decoded_queries),
                  t.decoded_queries);
  }
  if (t.encoded_answers > 0) {
    res.add_layer("svc.protocol.encode_ns", "ns",
                  t.encode_ns / static_cast<double>(t.encoded_answers),
                  t.encoded_answers);
  }
  if (t.fixed_frames > 0) {
    res.add_layer("svc.server.fixed_ns", "ns",
                  t.fixed_ns / static_cast<double>(t.fixed_frames),
                  t.fixed_frames);
  }
  if (t.counted_queries > 0) {
    res.add_layer("svc.server.count_ns", "ns",
                  t.count_ns / static_cast<double>(t.counted_queries),
                  t.counted_queries);
  }
  if (t.store_gets > 0) {
    res.add_layer("svc.store.get_hit_ns", "ns",
                  t.store_ns / static_cast<double>(t.store_gets), t.store_gets);
  }
}

void add_store_layers(Result& res,
                      const droplens::svc::SnapshotStore::Stats& st) {
  const double hits = static_cast<double>(st.resident_hits);
  const double gets = hits + static_cast<double>(st.loads + st.delta_loads +
                                                 st.compiles);
  res.add_layer("svc.store.hit_ratio", "ratio", gets > 0 ? hits / gets : 0,
                static_cast<size_t>(gets));
  res.add_layer("svc.store.evictions", "count",
                static_cast<double>(st.evictions));
  res.add_layer("svc.store.loads", "count", static_cast<double>(st.loads));
  res.add_layer("svc.store.delta_loads", "count",
                static_cast<double>(st.delta_loads));
  res.notes.push_back("store: resident_hits=" + std::to_string(st.resident_hits) +
                      " loads=" + std::to_string(st.loads) +
                      " delta_loads=" + std::to_string(st.delta_loads) +
                      " load_failures=" + std::to_string(st.load_failures) +
                      " compiles=" + std::to_string(st.compiles) +
                      " saves=" + std::to_string(st.saves) +
                      " evictions=" + std::to_string(st.evictions));
}

void add_add_up(Result& res, const Trace& trace,
                const std::vector<uint64_t>& requests, const std::string& parent,
                const std::vector<std::string>& layers, double tol) {
  const std::set<uint64_t> wanted(requests.begin(), requests.end());
  std::vector<Span> spans;
  for (const Span& s : trace.spans()) {
    if (wanted.count(s.request)) spans.push_back(s);
  }
  const AddUp a = check_add_up(spans, parent, layers, tol);
  std::string named;
  for (const std::string& l : layers) named += (named.empty() ? "" : "+") + l;
  res.add_layer("trace.add_up_remainder", "ratio", a.remainder(), a.requests);
  res.add_layer("trace.add_up_within", "ratio", a.within_ratio(), a.requests);
  res.add_layer("trace.live_over_replayed", "ratio", a.above_ratio(),
                a.requests);
  res.notes.push_back(
      "add-up check (" + named + " against " + parent + ", tolerance " +
      std::to_string(tol) + "): " + std::to_string(a.requests) +
      " requests, uncovered remainder " + std::to_string(a.remainder()) +
      " in aggregate, " + std::to_string(a.within) +
      " requests within tolerance, worst " + std::to_string(a.worst) +
      "; the live spans above took " + std::to_string(a.above_ratio()) +
      "x as long");
  if (a.requests == 0 || std::abs(a.remainder()) > tol) {
    res.correct = false;
    res.notes.push_back("FAILED: the " + named + " spans do not add up to the " +
                        parent + " time within the tolerance");
  }
}

void add_phase_layers(Result& res, const droplens::svc::EpollServer& edge,
                      const TracedPhase& probe, const Trace& trace,
                      const Options& opt, const std::string& workload) {
  namespace svc = droplens::svc;
  const svc::TransportStats st = edge.stats();
  uint64_t shed = 0;
  uint64_t disconnects = 0;
  for (uint64_t v : st.shed) shed += v;
  for (size_t i = 0; i < st.disconnects.size(); ++i) {
    // A client closing its end after its last reply is how a connection
    // normally ends; every other reason counts.
    const auto reason = static_cast<svc::DisconnectReason>(i);
    if (reason != svc::DisconnectReason::kPeerClosed) {
      disconnects += st.disconnects[i];
    }
  }
  res.add_layer("svc.transport.shed", "count", static_cast<double>(shed));
  res.add_layer("svc.transport.disconnects", "count",
                static_cast<double>(disconnects));
  res.add_layer("svc.transport.inflight_peak", "count",
                static_cast<double>(probe.inflight_peak()));
  res.add_layer("util.pool.tasks", "count",
                static_cast<double>(probe.pool_tasks()));
  res.add_layer("trace.spans", "count", static_cast<double>(trace.size()));

  // One file per workload, overwritten by the next traced run: a traced
  // window-mixed run writes about 30 MB.
  const std::string path = opt.work_dir + "/trace-" + workload + ".jsonl";
  std::filesystem::create_directories(opt.work_dir);
  if (!write_spans(trace.spans(), path)) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace perfbench
