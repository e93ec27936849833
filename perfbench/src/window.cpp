// window-mixed: the paper-scale world compiled into a delta-encoded .dls
// directory of kDates dates (more than the store keeps resident), served
// through the store, and hit by an open-loop schedule of small frames: 1-16
// queries skewed toward recent dates, some frames mixing dates, and a
// minority of range and stats ops. The same mix then runs closed loop over
// the same connections for the gated capacity figure.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "replay.hpp"
#include "sim/generator.hpp"
#include "sim/rng.hpp"
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

constexpr int kDates = 8;
constexpr int kKeyframeEvery = 2;
/// The query mix touches only the kHotDates newest days, whose keyframes
/// and deltas fit in kMaxResident; the older days are on disk only.
constexpr int kHotDates = 4;
constexpr size_t kMaxResident = 6;
constexpr double kMixedShare = 0.1;  // query frames that mix dates
constexpr int kConnections = 4;
/// Nominal open-loop rate of the measured phase, frames per second.
constexpr double kRate = 16000;
/// Share of --seconds spent open loop; the rest runs the closed loop.
constexpr double kOpenLoopShare = 0.5;
/// Frames of the mix the closed loop cycles through.
constexpr size_t kCapacityCorpus = 8192;
constexpr size_t kRateSlices = 10;
/// The slo_rate_rps ladder: offered rates, the p99 limit, step length.
constexpr double kLadder[] = {8000, 24000, 72000};
constexpr double kLimitUs = 2000;
constexpr double kStepSeconds = 1.0;
constexpr size_t kReplayFrames = 2048;

struct Serving {
  std::unique_ptr<Engine> engine;
  std::vector<std::shared_ptr<const svc::Snapshot>> compiled;  // reference
  std::unique_ptr<svc::SnapshotStore> store;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<Edge> edge;
  std::vector<std::unique_ptr<svc::TcpClientConnection>> conns;
  std::vector<std::unique_ptr<svc::Client>> clients;
  double setup_s = 0;
  std::vector<double> compile_ms;
  std::vector<double> save_ms;
  uint64_t file_bytes = 0;
};

std::unique_ptr<Serving> set_up(const sim::World& world, util::ThreadPool& pool,
                                const std::string& dir,
                                const std::vector<net::Date>& dates) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto s = std::make_unique<Serving>();
  const int64_t t0 = now_ns();
  s->engine = std::make_unique<Engine>(world, pool);
  for (int i = 0; i < kDates; ++i) {
    const int64_t c0 = now_ns();
    s->compiled.push_back(svc::compile_snapshot(
        s->engine->study, s->engine->index, dates[i], static_cast<uint64_t>(i + 1)));
    s->compile_ms.push_back(ms_since(c0));
  }
  // Keyframe every kKeyframeEvery dates, deltas over the previous day
  // between them, as `snapshot_tool delta --keyframe-every` writes them.
  for (int i = 0; i < kDates; ++i) {
    const std::string path = dir + "/" + svc::SnapshotStore::file_name(dates[i]);
    const int64_t w0 = now_ns();
    if (i % kKeyframeEvery == 0) {
      svc::save_snapshot(*s->compiled[i], path);
    } else {
      svc::save_snapshot_delta(*s->compiled[i], *s->compiled[i - 1], path);
    }
    s->save_ms.push_back(ms_since(w0));
    s->file_bytes += fs::file_size(path);
  }
  svc::SnapshotStore::Config config;
  config.dir = dir;
  config.max_resident = kMaxResident;
  s->store = std::make_unique<svc::SnapshotStore>(config, &s->engine->study,
                                                  &s->engine->index);
  s->store->get(dates.back());  // droplensd warms its serving date eagerly
  s->server = std::make_unique<svc::Server>(*s->store, &pool);
  s->edge = std::make_unique<Edge>(*s->server);
  // A frame of kMaxBatch queries keeps an event thread busy for a while.
  const std::string busy_frame = svc::encode_query_request(std::vector<svc::Query>(
      svc::kMaxBatch, svc::Query{dates.back(),
                                 s->engine->index.entries().front().prefix,
                                 svc::kAllFields}));
  s->conns = s->edge->connect_spread(kConnections, busy_frame);
  for (const auto& conn : s->conns) {
    s->clients.push_back(std::make_unique<svc::Client>(*conn));
  }
  const net::Prefix probe = s->engine->index.entries().front().prefix;
  if (s->clients[0]->lookup(dates.back(), probe) !=
      s->compiled.back()->lookup_reference(probe, svc::kAllFields)) {
    throw WrongAnswer("window-mixed: first answer differs from reference");
  }
  s->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  return s;
}

enum class Kind : uint8_t { kQuery, kRange, kStats };

/// One request frame of the mix with its expected reply.
struct Item {
  Kind kind = Kind::kQuery;
  std::vector<svc::Query> queries;
  svc::RangeQuery range;
  std::vector<svc::Answer> expected_answers;
  std::vector<svc::RangeRun> expected_runs;
  std::string encoded;  // the request frame, for trace matching and replay
  uint64_t fingerprint = 0;
  size_t lookups = 0;
};

/// Prefixes worth asking about: DROP entries, routed boundaries, randoms.
class PrefixSource {
 public:
  PrefixSource(const Engine& e, const svc::Snapshot& snap)
      : entries_(e.index.entries()), routed_(snap.routed().intervals()) {}

  net::Prefix pick(sim::Rng& rng) const {
    const double r = rng.uniform();
    if (r < 0.5 && !entries_.empty()) {
      return entries_[rng.below(entries_.size())].prefix;
    }
    uint64_t addr;
    if (r < 0.75 && !routed_.empty()) {
      const auto& iv = routed_[rng.below(routed_.size())];
      addr = rng.chance(0.5) ? iv.begin : iv.end - 1;
    } else {
      addr = rng.below(uint64_t{1} << 32);
    }
    return net::Prefix::containing(net::Ipv4(static_cast<uint32_t>(addr)),
                                   8 + static_cast<int>(rng.below(25)));
  }

 private:
  const std::vector<droplens::core::DropEntry>& entries_;
  std::span<const net::IntervalSet::Interval> routed_;
};

/// A date index among the kHotDates newest, skewed toward the newest:
/// P(k days back) ~ 2^-(k+1).
int pick_date(sim::Rng& rng) {
  return kDates - 1 - rng.geometric(0.5, kHotDates - 1);
}

/// `n` frames of the mix, with every expected reply computed from the
/// compiled snapshots' reference searches.
std::vector<Item> make_items(const Serving& s, const PrefixSource& source,
                             const std::vector<net::Date>& dates, uint64_t seed,
                             size_t n) {
  sim::Rng rng(seed);
  std::vector<Item> items(n);
  for (Item& it : items) {
    const double r = rng.uniform();
    if (r < 0.85) {
      it.kind = Kind::kQuery;
      const bool mixed = rng.chance(kMixedShare);
      const int frame_date = pick_date(rng);
      const size_t count = 1 + rng.below(16);
      for (size_t i = 0; i < count; ++i) {
        const int d = mixed ? pick_date(rng) : frame_date;
        const uint8_t fields =
            rng.chance(0.8) ? svc::kAllFields
                            : static_cast<uint8_t>(1 + rng.below(svc::kAllFields));
        svc::Query q{dates[d], source.pick(rng), fields};
        it.expected_answers.push_back(
            s.compiled[d]->lookup_reference(q.prefix, q.fields));
        it.queries.push_back(q);
      }
      it.lookups = count;
      it.encoded = svc::encode_query_request(it.queries);
    } else if (r < 0.95) {
      it.kind = Kind::kRange;
      // Ranges end on a recent-skewed date and look 1-3 days back, within
      // the hot dates.
      const int hi = std::max(kDates - kHotDates + 1, pick_date(rng));
      const int lo =
          std::max(kDates - kHotDates, hi - 1 - static_cast<int>(rng.below(3)));
      it.range = svc::RangeQuery{dates[lo], dates[hi], source.pick(rng),
                                 svc::kAllFields};
      // The naive reference: one lookup per day, run-length encoded.
      for (int d = lo; d <= hi; ++d) {
        const svc::Answer a =
            s.compiled[d]->lookup_reference(it.range.prefix, it.range.fields);
        const uint8_t degraded = s.compiled[d]->degraded();
        auto& runs = it.expected_runs;
        if (!runs.empty() && runs.back().degraded == degraded &&
            runs.back().answer == a) {
          ++runs.back().days;
        } else {
          runs.push_back(svc::RangeRun{dates[d], 1, degraded, a});
        }
      }
      it.lookups = static_cast<size_t>(hi - lo + 1);
      it.encoded = svc::encode_range_request(it.range);
    } else {
      it.kind = Kind::kStats;
      it.encoded = svc::encode_stats_request();
    }
    it.fingerprint = frame_fingerprint(it.encoded);
  }
  return items;
}

/// Poisson arrivals at `rate` for `seconds`, one frame of the mix each.
struct Schedule {
  std::vector<int64_t> offsets;
  std::vector<Item> items;
};

Schedule make_schedule(const Serving& s, const PrefixSource& source,
                       const std::vector<net::Date>& dates, uint64_t seed,
                       double rate, double seconds) {
  Schedule sc;
  sc.offsets = poisson_offsets(seed, rate, seconds);
  sc.items = make_items(s, source, dates, seed ^ 0x17e45ULL, sc.offsets.size());
  return sc;
}

/// Send `it` and check its reply; a wrong reply throws WrongAnswer.
void send_item(svc::Client& client, const Item& it) {
  switch (it.kind) {
    case Kind::kQuery:
      if (client.query(it.queries).answers != it.expected_answers) {
        throw WrongAnswer("window-mixed: answers differ from the per-date reference");
      }
      break;
    case Kind::kRange:
      if (client.range(it.range.begin, it.range.end, it.range.prefix,
                       it.range.fields)
              .runs != it.expected_runs) {
        throw WrongAnswer("window-mixed: range runs differ from naive per-day lookups");
      }
      break;
    case Kind::kStats:
      client.stats();
      break;
  }
}

void reconnect(Serving& s, int c) {
  s.conns[c] = s.edge->connect();
  s.clients[c] = std::make_unique<svc::Client>(*s.conns[c]);
}

struct PhaseResult {
  OpenLoopRun run;
  std::vector<OpenLoopSample> range_samples;  // range frames only
  std::vector<ClientRecord> records;          // traced pass only
  std::vector<size_t> record_item;
};

/// Send the schedule open loop over the serving connections (frame k on
/// connection k mod kConnections), checking every reply.
PhaseResult run_phase(Serving& s, const Schedule& sc, Trace* trace) {
  std::vector<std::vector<ClientRecord>> records(kConnections);
  std::vector<std::vector<size_t>> record_item(kConnections);
  auto send = [&](int c, size_t k) {
    const Item& it = sc.items[k];
    const int64_t t0 = now_ns();
    send_item(*s.clients[c], it);
    if (trace) {
      const int64_t t1 = now_ns();
      const uint64_t request = k + 1;
      records[c].push_back(ClientRecord{request, it.fingerprint, t0, t1,
                                        trace->add(0, request, "frame", t0, t1)});
      record_item[c].push_back(k);
    }
  };
  PhaseResult p;
  // Start 2 ms out, so every sender is ready for the first frame.
  p.run = run_open_loop(now_ns() + 2'000'000, sc.offsets, kConnections, send,
                        [&](int c) { reconnect(s, c); });
  for (size_t i = 0; i < p.run.samples.size(); ++i) {
    if (sc.items[p.run.item[i]].kind == Kind::kRange) {
      p.range_samples.push_back(p.run.samples[i]);
    }
  }
  for (int c = 0; c < kConnections; ++c) {
    p.records.insert(p.records.end(), records[c].begin(), records[c].end());
    p.record_item.insert(p.record_item.end(), record_item[c].begin(),
                         record_item[c].end());
  }
  return p;
}

struct CapacityResult {
  double lookups_per_s = 0;      // median of kRateSlices stretches
  double lookups_per_cpu_s = 0;  // per CPU second outside the clients, ditto
  Failures failures;
};

/// The mix closed loop: every connection sends corpus frames back to back
/// for `seconds`, checking every reply. Each frame is sent once first and
/// its reply decoded and compared with the reference; in the loop the
/// frames go out as encoded and each reply must equal that first one byte
/// for byte (a hash; stats replies carry counters and are not compared), so
/// the clients spend little CPU besides their socket calls.
CapacityResult run_capacity(Serving& s, const std::vector<Item>& corpus,
                            double seconds) {
  std::vector<uint64_t> expected(corpus.size());
  for (size_t k = 0; k < corpus.size(); ++k) {
    const Item& it = corpus[k];
    const std::string reply = s.conns[0]->roundtrip(it.encoded);
    const std::string_view payload = svc::frame_payload(reply);
    if ((it.kind == Kind::kQuery &&
         svc::decode_query_response(payload).answers != it.expected_answers) ||
        (it.kind == Kind::kRange &&
         svc::decode_range_response(payload).runs != it.expected_runs)) {
      throw WrongAnswer("window-mixed: a closed-loop reply differs from the reference");
    }
    expected[k] = response_hash(reply);
  }
  struct PerConn {
    Failures failures;
    std::string wrong;
  };
  std::vector<PerConn> per(kConnections);
  std::atomic<uint64_t> lookups{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PerConn& pc = per[c];
      for (size_t k = static_cast<size_t>(c) * corpus.size() / kConnections;
           !stop.load(std::memory_order_relaxed); k = (k + 1) % corpus.size()) {
        try {
          const std::string reply = s.conns[c]->roundtrip(corpus[k].encoded);
          if (corpus[k].kind != Kind::kStats &&
              response_hash(reply) != expected[k]) {
            const svc::FrameHeader header = svc::decode_header(reply);
            if (header.type == svc::FrameType::kError) {
              throw std::runtime_error("svc server error: " +
                                       svc::decode_error(svc::frame_payload(reply)));
            }
            pc.wrong = "window-mixed: a closed-loop reply changed between sends";
            stop.store(true);
            return;
          }
        } catch (const std::exception& e) {
          pc.failures.count(classify_failure(e.what()));
          try {
            reconnect(s, c);
          } catch (const std::exception&) {
          }
          continue;
        }
        pc.failures.count(Outcome::kOk);
        lookups.fetch_add(corpus[k].lookups, std::memory_order_relaxed);
      }
    });
  }
  std::vector<pthread_t> clients;
  for (std::thread& t : threads) clients.push_back(t.native_handle());
  // The clients run until the sampler's last reading, so their CPU clocks
  // stay readable to it.
  LoopSampler sampler(clients, lookups, seconds, kRateSlices);
  sampler.join();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  CapacityResult r;
  for (PerConn& pc : per) {
    if (!pc.wrong.empty()) throw WrongAnswer(pc.wrong);
    r.failures.merge(pc.failures);
  }
  r.lookups_per_s = sampler.wall_rate();
  r.lookups_per_cpu_s = sampler.cpu_rate();
  return r;
}

/// The kDates newest days of the study window, oldest first.
std::vector<net::Date> window_dates(const sim::ScenarioConfig& config) {
  std::vector<net::Date> dates;
  for (int i = kDates - 1; i >= 0; --i) dates.push_back(config.window_end - i);
  return dates;
}

void traced_layers(Result& res, Serving& s, const Schedule& sc,
                   const PhaseResult& phase,
                   const std::vector<ServedFrame>& served, Trace& trace,
                   util::ThreadPool& pool, const std::vector<net::Date>& dates,
                   const Options& opt, const std::string& dir,
                   const TracedPhase& probe) {
  const svc::SnapshotStore::Stats st = s.store->stats();
  const std::vector<MatchedFrame> matched =
      match_served(trace, phase.records, served);
  std::vector<double> serve_us, range_us, overhead_us;
  for (const MatchedFrame& m : matched) {
    const Kind kind = sc.items[phase.record_item[m.record]].kind;
    if (kind == Kind::kQuery) serve_us.push_back(m.serve_us);
    if (kind == Kind::kRange) range_us.push_back(m.serve_us);
    overhead_us.push_back(m.overhead_us);
  }

  // Replays resolve dates through the serving store. The mix asks only for
  // the hot dates, which stay resident, so the replayed store time is the
  // hit path, and each replayed frame is answered from the very snapshots
  // (and versions) its live serve used.
  Replayer replayer(*s.store, *s.server, &pool, trace);
  std::vector<uint64_t> replayed;
  const size_t step = std::max<size_t>(1, matched.size() / kReplayFrames);
  for (size_t j = 0; j < matched.size(); j += step) {
    const MatchedFrame& m = matched[j];
    const ClientRecord& r = phase.records[m.record];
    const Item& it = sc.items[phase.record_item[m.record]];
    const std::string out =
        replayer.replay_frame(r.request, m.served->span_id, it.encoded);
    if (it.kind != Kind::kStats && response_hash(out) != m.served->response) {
      throw WrongAnswer("window-mixed: the replayed layers built another "
                        "response than Server::serve for request " +
                        std::to_string(r.request));
    }
    if (it.kind == Kind::kQuery) {
      const net::Date d = it.queries[0].date;
      bool one_date = true;
      for (const svc::Query& q : it.queries) one_date &= q.date == d;
      if (one_date) {
        replayer.search_split(r.request, *s.store->get(d), it.queries);
      }
    }
    replayed.push_back(r.request);
  }
  add_search_layers(res, replayer.totals());
  add_add_up(res, trace, replayed, "serve.replayed",
             {"fixed", "decode", "answer", "count", "encode"}, kAddUpTolerance);

  res.add_layer("svc.server.serve_us", "us", median(serve_us), serve_us.size());
  res.add_layer("svc.server.range_us", "us", median(range_us), range_us.size());
  res.add_layer("svc.transport.overhead_us", "us", median(overhead_us),
                overhead_us.size());
  add_store_layers(res, st);

  // Cold gets on fresh disk-only stores: every date is a miss (keyframe
  // mmap or delta-chain reconstruction); keyframe dates give load_ms.
  std::vector<double> miss_ms, load_ms;
  for (int i = 0; i < kDates; ++i) {
    svc::SnapshotStore::Config cold_config;
    cold_config.dir = dir;
    svc::SnapshotStore cold(cold_config);
    const int64_t t0 = now_ns();
    cold.get(dates[i]);
    miss_ms.push_back(ms_since(t0));
    if (i % kKeyframeEvery == 0) load_ms.push_back(miss_ms.back());
  }
  // What the dates would take as keyframes, against what they take as
  // keyframes and deltas.
  svc::SnapshotStore::Config all_config;
  all_config.dir = dir;
  all_config.max_resident = 0;
  svc::SnapshotStore all(all_config);
  uint64_t keyframe_bytes = 0;
  for (net::Date d : dates) {
    keyframe_bytes += svc::serialize_snapshot(*all.get(d)).size();
  }
  res.add_layer("svc.store.get_miss_ms", "ms", median(miss_ms), miss_ms.size());
  res.add_layer("svc.io.compile_ms", "ms", median(s.compile_ms),
                s.compile_ms.size());
  res.add_layer("svc.io.save_ms", "ms", median(s.save_ms), s.save_ms.size());
  res.add_layer("svc.io.load_ms", "ms", median(load_ms), load_ms.size());
  res.add_layer("svc.io.file_bytes", "bytes", static_cast<double>(s.file_bytes));
  res.add_layer("svc.io.delta_ratio", "ratio",
                static_cast<double>(s.file_bytes) /
                    static_cast<double>(keyframe_bytes));
  res.add_layer("core.snapshot_cache.hit_ratio", "ratio",
                s.engine->cache_hit_ratio());
  add_phase_layers(res, s.edge->transport(), probe, trace, opt,
                   "window-mixed");
}

}  // namespace

Result run_window(const Options& opt, bool traced) {
  Result res;
  sim::ScenarioConfig config;
  config.seed ^= opt.seed * 0x9e3779b97f4a7c15ULL;
  const auto world = sim::generate(config);
  const std::vector<net::Date> dates = window_dates(config);
  util::ThreadPool pool(util::ThreadPool::default_thread_count());
  const std::string dir = opt.work_dir + "/window";
  const double open_s = opt.seconds * kOpenLoopShare;
  const double closed_s = opt.seconds - open_s;
  res.notes.push_back(
      "open loop for " + std::to_string(open_s) + " s, Poisson arrivals at " +
      std::to_string(static_cast<int>(kRate)) + " frames/s; then closed loop for " +
      std::to_string(closed_s) + " s; both over " +
      std::to_string(kConnections) + " connections; " + std::to_string(kDates) +
      " dates (keyframe every " + std::to_string(kKeyframeEvery) +
      "), max_resident=" + std::to_string(kMaxResident) +
      "; pool=" + std::to_string(pool.concurrency()) +
      " event_threads=" + std::to_string(Edge::kEventThreads));

  std::vector<double> setup_s;
  std::unique_ptr<Serving> s;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    s = set_up(*world, pool, dir, dates);
    setup_s.push_back(s->setup_s);
  }
  // Every frame and expected reply is made before the measured phases, so
  // the reference snapshots can go before peak_rss_mb starts counting.
  const PrefixSource source(*s->engine, *s->compiled.back());
  const Schedule schedule =
      make_schedule(*s, source, dates, opt.seed ^ 0x5c4edULL, kRate, open_s);
  const std::vector<Item> corpus =
      make_items(*s, source, dates, opt.seed ^ 0xc0ffeeULL, kCapacityCorpus);
  std::vector<Schedule> ladder_schedules;
  if (!opt.trace) {
    for (double rate : kLadder) {
      ladder_schedules.push_back(make_schedule(
          *s, source, dates, opt.seed ^ static_cast<uint64_t>(rate), rate,
          kStepSeconds));
    }
  }
  // Warm-up: every date resolved once and the connections exercised.
  run_phase(*s, make_schedule(*s, source, dates, opt.seed ^ 0x3a7ULL, kRate, 0.25),
            nullptr);
  s->compiled.clear();
  if (!reset_peak_rss()) res.notes.push_back("peak RSS could not be reset");

  Trace trace;
  TracedPhase phase_probe(*s->edge, traced ? &trace : nullptr);
  const PhaseResult phase = run_phase(*s, schedule, phase_probe.trace());
  phase_probe.stop();
  std::vector<ServedFrame> served;
  if (traced) served = s->edge->tracer()->take_served();
  // The closed loop of a traced pass runs traced too, into a trace that is
  // dropped, so trace.overhead.work_per_cpu_s prices the tracing.
  Trace capacity_trace;
  if (traced) s->edge->tracer()->attach(&capacity_trace);
  const CapacityResult capacity = run_capacity(*s, corpus, closed_s);
  if (traced) {
    s->edge->tracer()->attach(nullptr);
    s->edge->tracer()->take_served();
  }

  // slo_rate_rps: climb the ladder until a step misses the limit or its
  // backlog grows.
  std::vector<LadderStep> ladder;
  std::string steps;
  res.failures = phase.run.failures;
  res.failures.merge(capacity.failures);
  for (const Schedule& step_schedule : ladder_schedules) {
    const PhaseResult p = run_phase(*s, step_schedule, nullptr);
    res.failures.merge(p.run.failures);
    LadderStep step;
    step.rate = kLadder[ladder.size()];
    step.latency_us = summarize_open_loop(p.run.samples).latency_us;
    step.backlog_growing = backlog_grows(p.run.samples, kLimitUs / 2);
    step.failed = p.run.failures.failed();
    ladder.push_back(step);
    steps += " " + std::to_string(static_cast<int>(step.rate)) + ":" +
             std::to_string(static_cast<int>(step.latency_us.tail.value)) + "us" +
             (step.backlog_growing ? "(backlog)" : "");
    if (!step_meets(step, kLimitUs)) break;
  }

  const OpenLoopSummary all = summarize_open_loop(phase.run.samples);
  const OpenLoopSummary range = summarize_open_loop(phase.range_samples);
  res.add_e2e("setup_s", "s", median(setup_s), setup_s.size());
  res.add_e2e("peak_rss_mb", "MiB", peak_rss_mb(), 1, "over the measured phases");
  const std::string slices =
      "median of " + std::to_string(kRateSlices) + " stretches";
  res.add_e2e("work_per_cpu_s", "1/s", capacity.lookups_per_cpu_s,
              capacity.failures.attempted,
              "answered lookups of the closed loop per CPU second outside "
              "the clients, " + slices);
  res.add_extra("capacity_per_s", "1/s", capacity.lookups_per_s,
                capacity.failures.attempted,
                "answered lookups of the closed loop, " + slices);
  // frame_p50_us is the round trip from the send. Timed from the due time,
  // one slow stretch of the machine backs the schedule up and every later
  // frame inherits the wait: one run in ten read 100x its usual median.
  res.add_extra("frame_p50_us", "us", all.round_trip_us.p50,
                all.round_trip_us.n,
                describe_median(all.round_trip_us) + ", from the send");
  res.add_extra("frame_due_p50_us", "us", all.latency_us.p50,
                all.latency_us.n,
                describe_median(all.latency_us) + ", from the due time");
  res.add_extra("frame_p99_us", "us", all.latency_us.tail.value,
                all.latency_us.n,
                describe_tail(all.latency_us) + ", from the due time");
  res.add_extra("range_p99_us", "us", range.latency_us.tail.value,
                range.latency_us.n,
                describe_tail(range.latency_us) + ", range frames");
  res.add_extra("generator_late_p50_us", "us", all.lateness_us.p50,
                all.lateness_us.n);
  res.add_extra("generator_late_p99_us", "us", all.lateness_us.tail.value,
                all.lateness_us.n, describe_tail(all.lateness_us));
  if (!ladder.empty()) {
    res.add_extra("slo_rate_rps", "1/s", highest_passing_rate(ladder, kLimitUs),
                  ladder.size(),
                  "limit p99 <= " + std::to_string(static_cast<int>(kLimitUs)) +
                      "us, steps" + steps);
  }
  res.add_extra("failed_ratio", "ratio", res.failures.ratio(),
                res.failures.attempted);
  if (traced) {
    traced_layers(res, *s, schedule, phase, served, trace, pool, dates, opt,
                  dir, phase_probe);
  }
  s.reset();
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
