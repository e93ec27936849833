// fulltable-query: a 1M-prefix sim::generate_scale world compiled and saved
// as one keyframe, served through the store, and queried by one closed-loop
// client in kMaxBatch frames of mixed /8-/32 all-field probes.
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "replay.hpp"
#include "sim/rng.hpp"
#include "sim/scale.hpp"
#include "svc/protocol.hpp"
#include "svc/snapshot_io.hpp"
#include "svc/snapshot_store.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace svc = droplens::svc;
namespace net = droplens::net;
namespace sim = droplens::sim;
namespace util = droplens::util;

namespace {

constexpr size_t kCorpusFrames = 32;
constexpr size_t kReplayFrames = 256;
constexpr size_t kRateSlices = 10;

/// Everything one set-up builds, declared so it tears down in reverse.
struct Serving {
  std::unique_ptr<Engine> engine;
  std::shared_ptr<const svc::Snapshot> compiled;
  std::unique_ptr<svc::SnapshotStore> store;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<Edge> edge;
  std::unique_ptr<svc::TcpClientConnection> conn;
  std::unique_ptr<svc::Client> client;
  double setup_s = 0;
  double compile_ms = 0;
  double save_ms = 0;
  double load_ms = 0;
  uint64_t file_bytes = 0;
};

std::unique_ptr<Serving> set_up(const sim::World& world, util::ThreadPool& pool,
                                const std::string& dir, net::Date day) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto s = std::make_unique<Serving>();
  const int64_t t0 = now_ns();
  s->engine = std::make_unique<Engine>(world, pool);
  const int64_t c0 = now_ns();
  s->compiled = svc::compile_snapshot(s->engine->study, s->engine->index, day, 1);
  s->compile_ms = ms_since(c0);
  const std::string path = dir + "/" + svc::SnapshotStore::file_name(day);
  const int64_t w0 = now_ns();
  svc::save_snapshot(*s->compiled, path);
  s->save_ms = ms_since(w0);
  s->file_bytes = fs::file_size(path);
  svc::SnapshotStore::Config config;
  config.dir = dir;
  config.max_resident = 16;
  s->store = std::make_unique<svc::SnapshotStore>(config, &s->engine->study,
                                                  &s->engine->index);
  const int64_t l0 = now_ns();
  s->store->get(day);  // droplensd warms its serving date eagerly
  s->load_ms = ms_since(l0);
  s->server = std::make_unique<svc::Server>(*s->store, &pool);
  s->edge = std::make_unique<Edge>(*s->server);
  s->conn = s->edge->connect();
  s->client = std::make_unique<svc::Client>(*s->conn);
  const auto ivs = s->compiled->routed().intervals();
  const net::Prefix probe = net::Prefix::containing(
      net::Ipv4(static_cast<uint32_t>(ivs[ivs.size() / 2].begin)), 24);
  if (s->client->lookup(day, probe) !=
      s->compiled->lookup_reference(probe, svc::kAllFields)) {
    throw WrongAnswer("fulltable-query: first answer differs from reference");
  }
  s->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return s;
}

struct Corpus {
  std::vector<std::vector<svc::Query>> frames;
  std::vector<std::string> encoded;
  std::vector<uint64_t> fingerprints;
  std::vector<std::vector<svc::Answer>> expected;
};

/// kMaxBatch frames of /8-/32 all-field probes: routed-interval boundaries
/// interleaved with uniformly random addresses, answered by the reference
/// search of the compiled (not the served) snapshot.
Corpus make_corpus(const svc::Snapshot& snap, uint64_t seed, net::Date day) {
  sim::Rng rng(seed ^ 0xf0117ab1eULL);
  const auto ivs = snap.routed().intervals();
  Corpus c;
  for (size_t f = 0; f < kCorpusFrames; ++f) {
    std::vector<svc::Query> frame;
    std::vector<svc::Answer> expected;
    frame.reserve(svc::kMaxBatch);
    for (size_t i = 0; i < svc::kMaxBatch; ++i) {
      uint64_t addr;
      if (i % 2 == 0) {
        const auto& iv = ivs[rng.below(ivs.size())];
        addr = rng.chance(0.5) ? iv.begin : iv.end - 1;
      } else {
        addr = rng.below(uint64_t{1} << 32);
      }
      const net::Prefix p = net::Prefix::containing(
          net::Ipv4(static_cast<uint32_t>(addr)),
          8 + static_cast<int>(rng.below(25)));
      frame.push_back(svc::Query{day, p, svc::kAllFields});
      expected.push_back(snap.lookup_reference(p, svc::kAllFields));
    }
    c.encoded.push_back(svc::encode_query_request(frame));
    c.fingerprints.push_back(frame_fingerprint(c.encoded.back()));
    c.frames.push_back(std::move(frame));
    c.expected.push_back(std::move(expected));
  }
  return c;
}

struct LoopResult {
  std::vector<double> rtt_us;
  double lookups_per_s = 0;      // median of kRateSlices stretches
  double lookups_per_cpu_s = 0;  // per CPU second outside the client, ditto
  Failures failures;
  std::vector<ClientRecord> records;      // traced pass only
  std::vector<size_t> record_frame;       // corpus index per record
};

/// Send corpus frames back to back for `seconds`, or `frames` frames when
/// that is nonzero.
LoopResult closed_loop(Serving& s, const Corpus& c, net::Date day,
                       double seconds, Trace* trace, size_t frames = 0) {
  LoopResult r;
  std::atomic<uint64_t> lookups{0};
  std::optional<LoopSampler> sampler;
  if (!frames) sampler.emplace(std::vector{pthread_self()}, lookups, seconds, kRateSlices);
  uint64_t request = 1;
  for (size_t i = 0; frames ? i < frames : !sampler->done(); ++i) {
    const size_t k = i % c.frames.size();
    const int64_t t0 = now_ns();
    svc::QueryResponse response;
    try {
      response = s.client->query(c.frames[k]);
    } catch (const std::exception& e) {
      r.failures.count(classify_failure(e.what()));
      s.conn = s.edge->connect();
      s.client = std::make_unique<svc::Client>(*s.conn);
      continue;
    }
    const int64_t t1 = now_ns();
    r.failures.count(Outcome::kOk);
    if (response.date != day || response.answers != c.expected[k]) {
      throw WrongAnswer("fulltable-query: served answers differ from "
                        "Snapshot::lookup_reference in corpus frame " +
                        std::to_string(k));
    }
    r.rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    lookups.fetch_add(c.frames[k].size(), std::memory_order_relaxed);
    if (trace) {
      const uint64_t id = trace->add(0, request, "frame", t0, t1);
      r.records.push_back(ClientRecord{request, c.fingerprints[k], t0, t1, id});
      r.record_frame.push_back(k);
      ++request;
    }
  }
  if (sampler) {
    sampler->join();
    r.lookups_per_s = sampler->wall_rate();
    r.lookups_per_cpu_s = sampler->cpu_rate();
  }
  return r;
}

void add_loop_metrics(Result& res, const LoopResult& loop) {
  const Summary rtt = summarize(loop.rtt_us);
  const std::string slices =
      "median of " + std::to_string(kRateSlices) + " stretches";
  res.add_e2e("work_per_cpu_s", "1/s", loop.lookups_per_cpu_s,
              loop.rtt_us.size(),
              "answered lookups per CPU second outside the client, " + slices);
  res.add_extra("lookups_per_s", "1/s", loop.lookups_per_s, loop.rtt_us.size(),
                "answered lookups, " + slices);
  res.add_extra("frame_p50_us", "us", rtt.p50, rtt.n, describe_median(rtt));
  res.add_extra("frame_p99_us", "us", rtt.tail.value, rtt.n,
                describe_tail(rtt) + ", " + std::to_string(rtt.tail.beyond) +
                    " beyond");
}

/// Median in-process Server::serve time of the corpus frames with a pool
/// of `threads` workers: the multi-core scaling of the batched path.
double serve_with_pool(svc::SnapshotStore& store, const Corpus& c,
                       unsigned threads) {
  util::ThreadPool pool(threads);
  svc::Server server(store, &pool);
  std::vector<double> us;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& frame : c.encoded) {
      const int64_t t0 = now_ns();
      std::string out = server.serve(frame);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
  }
  return median(us);
}

/// The traced pass's per-layer metrics.
void traced_layers(Result& res, Serving& s, const Corpus& c,
                   const LoopResult& loop, Trace& trace,
                   util::ThreadPool& pool, net::Date day,
                   const Options& opt, const std::string& dir,
                   const TracedPhase& probe) {
  const svc::SnapshotStore::Stats st = s.store->stats();
  const std::vector<ServedFrame> served = s.edge->tracer()->take_served();
  const std::vector<MatchedFrame> matched =
      match_served(trace, loop.records, served);
  std::vector<double> serve_us, overhead_us;
  for (const MatchedFrame& m : matched) {
    serve_us.push_back(m.serve_us);
    overhead_us.push_back(m.overhead_us);
  }

  // Replay an even sample of the matched requests through the layers.
  Replayer replayer(*s.store, *s.server, &pool, trace);
  std::vector<uint64_t> replayed;
  const std::shared_ptr<const svc::Snapshot> served_snap = s.store->get(day);
  const size_t step = std::max<size_t>(1, matched.size() / kReplayFrames);
  for (size_t j = 0; j < matched.size(); j += step) {
    const MatchedFrame& m = matched[j];
    const ClientRecord& r = loop.records[m.record];
    const size_t k = loop.record_frame[m.record];
    const std::string out =
        replayer.replay_frame(r.request, m.served->span_id, c.encoded[k]);
    if (response_hash(out) != m.served->response) {
      throw WrongAnswer("fulltable-query: the replayed layers built another "
                        "response than Server::serve for corpus frame " +
                        std::to_string(k));
    }
    replayer.search_split(r.request, *served_snap, c.frames[k]);
    replayed.push_back(r.request);
  }
  add_search_layers(res, replayer.totals());
  add_add_up(res, trace, replayed, "serve.replayed",
             {"fixed", "decode", "answer", "count", "encode"}, kAddUpTolerance);

  res.add_layer("svc.server.serve_us", "us", median(serve_us), serve_us.size());
  for (unsigned threads : {1u, 2u, 4u}) {
    res.add_layer("svc.server.serve_us.pool" + std::to_string(threads), "us",
                  serve_with_pool(*s.store, c, threads), 3 * c.encoded.size());
  }
  res.add_layer("svc.transport.overhead_us", "us", median(overhead_us),
                overhead_us.size());
  add_store_layers(res, st);

  // A miss on this store is the mmap load of the keyframe; time it cold.
  std::vector<double> miss_ms;
  for (int rep = 0; rep < 3; ++rep) {
    svc::SnapshotStore::Config config;
    config.dir = dir;
    svc::SnapshotStore cold(config);
    const int64_t t0 = now_ns();
    cold.get(day);
    miss_ms.push_back(ms_since(t0));
  }
  res.add_layer("svc.store.get_miss_ms", "ms", median(miss_ms), miss_ms.size());
  res.add_layer("svc.io.compile_ms", "ms", s.compile_ms, 1);
  res.add_layer("svc.io.save_ms", "ms", s.save_ms, 1);
  res.add_layer("svc.io.load_ms", "ms", s.load_ms, 1);
  res.add_layer("svc.io.file_bytes", "bytes", static_cast<double>(s.file_bytes));
  res.add_layer("svc.io.delta_ratio", "ratio", 1.0);
  res.add_layer("core.snapshot_cache.hit_ratio", "ratio",
                s.engine->cache_hit_ratio());
  add_phase_layers(res, s.edge->transport(), probe, trace, opt,
                   "fulltable-query");
}

}  // namespace

Result run_fulltable(const Options& opt, bool traced) {
  Result res;
  sim::ScaleConfig config;
  config.seed = opt.seed;
  const auto world = sim::generate_scale(config);
  const net::Date day = config.day;
  util::ThreadPool pool(util::ThreadPool::default_thread_count());
  const std::string dir = opt.work_dir + "/fulltable";
  res.notes.push_back("closed loop, 1 connection, kMaxBatch=" +
                      std::to_string(svc::kMaxBatch) + " queries per frame; " +
                      std::to_string(config.routed_prefixes) +
                      " routed prefixes; pool=" +
                      std::to_string(pool.concurrency()) + " event_threads=" +
                      std::to_string(Edge::kEventThreads));

  std::vector<double> setup_s;
  std::unique_ptr<Serving> s;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    s = set_up(*world, pool, dir, day);
    setup_s.push_back(s->setup_s);
  }
  const Corpus corpus = make_corpus(*s->compiled, opt.seed, day);
  // The corpus holds every expected answer; the heap-compiled reference
  // snapshot is not needed past this point and would count in peak_rss_mb.
  s->compiled.reset();
  // Warm-up: fault in the mapped snapshot pages and exercise the path once
  // per corpus frame before timing.
  closed_loop(*s, corpus, day, 0.0, nullptr, corpus.frames.size());

  if (!reset_peak_rss()) res.notes.push_back("peak RSS could not be reset");
  Trace trace;
  TracedPhase phase_probe(*s->edge, traced ? &trace : nullptr);
  const LoopResult loop =
      closed_loop(*s, corpus, day, opt.seconds, phase_probe.trace());
  phase_probe.stop();

  res.failures = loop.failures;
  res.add_e2e("setup_s", "s", median(setup_s), setup_s.size());
  res.add_e2e("peak_rss_mb", "MiB", peak_rss_mb(), 1, "over the measured phase");
  add_loop_metrics(res, loop);
  if (traced) {
    traced_layers(res, *s, corpus, loop, trace, pool, day, opt, dir, phase_probe);
  }
  s.reset();
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
