// live-follow: the paper-scale world lowered by sim::EventReplayer and fed,
// day by day at a fixed pace, through a stream::Publisher attached to the
// store-mode Server, compacting and publishing a live head every 7 days as
// `droplensd --follow` does. One stream::Subscriber tails over TCP and a
// light open-loop query load reads the live head.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "core/alarms.hpp"
#include "sim/event_replayer.hpp"
#include "sim/generator.hpp"
#include "sim/rng.hpp"
#include "stream/alarm_monitor.hpp"
#include "stream/applier.hpp"
#include "stream/event_log.hpp"
#include "stream/publisher.hpp"
#include "stream/snapshot_diff.hpp"
#include "stream/subscriber.hpp"
#include "stream/wire.hpp"
#include "svc/protocol.hpp"
#include "svc/snapshot_store.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = droplens::svc;
namespace net = droplens::net;
namespace sim = droplens::sim;
namespace util = droplens::util;
namespace stream = droplens::stream;
namespace core = droplens::core;

namespace {

constexpr int kCompactEvery = 7;           // droplensd --compact-every
constexpr size_t kTrimKeep = size_t{1} << 16;  // droplensd's retained tail
constexpr double kHeadRate = 2000;         // head query frames per second
constexpr int64_t kPollIdleNs = 500'000;   // subscriber back-off when idle
constexpr uint64_t kHeadVersions = uint64_t{1} << 62;
constexpr size_t kHeadsKept = 4;  // published heads kept to check answers
/// Replay pace. A paper-scale compaction takes a few hundred milliseconds,
/// so the measured phase follows the last seconds * kDaysPerSecond days of
/// the window; everything before them is fast-forwarded during set-up.
constexpr double kDaysPerSecond = 10;
// Request-id spaces of the traced pass.
constexpr uint64_t kHeadRequests = uint64_t{1} << 40;
constexpr uint64_t kPollRequests = uint64_t{1} << 41;

/// The publisher as the server's stream feed, timing each
/// Publisher::handle_subscribe inside the traced serve that runs it.
class TimedFeed : public svc::StreamFeed {
 public:
  explicit TimedFeed(stream::Publisher& publisher) : publisher_(publisher) {}
  std::string handle_subscribe(std::string_view payload) override {
    const int64_t t0 = now_ns();
    std::string out = publisher_.handle_subscribe(payload);
    TracingService::note_child("subscribe", t0, now_ns());
    return out;
  }

 private:
  stream::Publisher& publisher_;
};

struct Serving {
  std::unique_ptr<stream::Publisher> publisher;
  std::unique_ptr<TimedFeed> feed;
  std::unique_ptr<svc::SnapshotStore> store;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<Edge> edge;
  std::unique_ptr<svc::TcpClientConnection> sub_conn, head_conn, probe_conn;
  std::unique_ptr<svc::Client> sub_client, head_client, probe_client;
  std::unique_ptr<stream::Subscriber> subscriber;
  size_t next_event = 0;  // first event not yet ingested
  uint64_t version = kHeadVersions;
  std::vector<core::Alarm> delivered_alarms;  // carried by deltas so far
  double setup_s = 0;
};

stream::AlarmMonitor::Config monitor_config(const sim::World& w) {
  stream::AlarmMonitor::Config c;
  c.window_begin = w.config.window_begin;
  c.window_end = w.config.window_end;
  c.drop = &w.drop;
  return c;
}

bool same_event(stream::Event received, const stream::Event& sent) {
  received.seq = 0;  // replayer events are unstamped
  return received == sent;
}

std::unique_ptr<Serving> set_up(const sim::World& world,
                                const std::vector<stream::Event>& events,
                                net::Date follow_from, util::ThreadPool& pool,
                                bool traced) {
  auto s = std::make_unique<Serving>();
  const int64_t t0 = now_ns();
  s->publisher = std::make_unique<stream::Publisher>(monitor_config(world));
  s->publisher->seed_rir(world.registry);
  // Fast-forward the history before the followed days in one burst, as
  // droplensd does with the pre-window history.
  while (s->next_event < events.size() &&
         events[s->next_event].date < follow_from) {
    s->publisher->ingest(events[s->next_event++]);
  }
  // History resolves through a store; the live head answers for its date.
  svc::SnapshotStore::Config config;
  s->store = std::make_unique<svc::SnapshotStore>(config);
  s->server = std::make_unique<svc::Server>(*s->store, &pool);
  s->feed = std::make_unique<TimedFeed>(*s->publisher);
  s->server->set_stream_feed(traced ? static_cast<svc::StreamFeed*>(s->feed.get())
                                    : s->publisher.get());
  s->server->publish(s->publisher->compact(follow_from - 1, ++s->version));
  s->edge = std::make_unique<Edge>(*s->server);
  s->sub_conn = s->edge->connect();
  s->sub_client = std::make_unique<svc::Client>(*s->sub_conn);
  s->subscriber = std::make_unique<stream::Subscriber>(*s->sub_client, 0);
  const stream::Delta first = s->subscriber->poll(stream::kMaxDeltaEvents);
  if (first.reset || first.events.empty()) {
    throw WrongAnswer("live-follow: first delta is empty");
  }
  for (size_t i = 0; i < first.events.size(); ++i) {
    if (!same_event(first.events[i], events[i])) {
      throw WrongAnswer("live-follow: first delta differs from the stream");
    }
  }
  s->delivered_alarms = first.alarms;
  s->setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  s->head_conn = s->edge->connect();
  s->head_client = std::make_unique<svc::Client>(*s->head_conn);
  s->probe_conn = s->edge->connect();
  s->probe_client = std::make_unique<svc::Client>(*s->probe_conn);
  // Catch the subscriber up to the head before the measured phase.
  while (s->subscriber->next() < s->publisher->head()) {
    const uint64_t from = s->subscriber->next();
    const stream::Delta d = s->subscriber->poll(stream::kMaxDeltaEvents);
    for (size_t i = 0; i < d.events.size(); ++i) {
      if (!same_event(d.events[i], events[from + i])) {
        throw WrongAnswer("live-follow: catch-up delta differs from the stream");
      }
    }
    s->delivered_alarms.insert(s->delivered_alarms.end(), d.alarms.begin(),
                               d.alarms.end());
  }
  return s;
}

/// The head load: Poisson arrival times and, per frame, 1-16 prefixes
/// asked about at whatever date the live head has when the frame is sent.
struct HeadSchedule {
  std::vector<int64_t> offsets;
  std::vector<std::vector<net::Prefix>> prefixes;
};

HeadSchedule head_schedule(const sim::World& world, uint64_t seed,
                           double seconds) {
  HeadSchedule sc;
  sc.offsets = poisson_offsets(seed ^ 0x4eadULL, kHeadRate, seconds);
  sim::Rng rng(seed ^ 0x4ead5ULL);
  const std::vector<net::Prefix> entries = world.drop.all_prefixes();
  for (size_t k = 0; k < sc.offsets.size(); ++k) {
    std::vector<net::Prefix>& frame = sc.prefixes.emplace_back();
    const size_t n = 1 + rng.below(16);
    for (size_t i = 0; i < n; ++i) {
      if (rng.chance(0.5) && !entries.empty()) {
        frame.push_back(entries[rng.below(entries.size())]);
      } else {
        frame.push_back(net::Prefix::containing(
            net::Ipv4(static_cast<uint32_t>(rng.below(uint64_t{1} << 32))),
            8 + static_cast<int>(rng.below(25))));
      }
    }
  }
  return sc;
}

struct PhaseResult {
  uint64_t window_events = 0;
  double busy_s = 0;  // follower time in ingest and compact
  double follower_cpu_s = 0;  // the follower thread's CPU time
  std::vector<double> event_to_delta_us;
  std::vector<double> compact_publish_ms;
  std::vector<double> compact_ms;
  OpenLoopRun head;
  uint64_t head_retries = 0;
  std::vector<core::Alarm> delta_alarms;
  std::shared_ptr<const svc::Snapshot> last_head;
  // Traced pass only.
  std::vector<std::pair<uint64_t, uint64_t>> ingest_spans;  // seq, span id
  std::vector<ClientRecord> records;       // head query frames
  std::vector<ClientRecord> poll_records;  // subscriber polls
};

PhaseResult run_phase(Serving& s, const sim::World& world,
                      const std::vector<stream::Event>& events,
                      const HeadSchedule& head_items, net::Date begin,
                      double seconds, Trace* trace) {
  PhaseResult r;
  const net::Date end = world.config.window_end;
  const int days = end - begin + 1;
  const double day_ns = seconds * 1e9 / days;
  const int64_t start = now_ns() + 2'000'000;  // the schedules' start
  const size_t first_window_event = s.next_event;
  auto due_of = [&](net::Date d) {
    return start + static_cast<int64_t>((d - begin) * day_ns);
  };

  std::mutex heads_mu;
  std::map<uint64_t, std::shared_ptr<const svc::Snapshot>> heads;
  heads[s.version] = s.server->snapshot();
  std::atomic<int32_t> head_date{s.server->snapshot()->date().days()};
  std::string wrong;
  std::mutex wrong_mu;
  auto set_wrong = [&](std::string w) {
    std::lock_guard<std::mutex> lock(wrong_mu);
    if (wrong.empty()) wrong = std::move(w);
  };
  const net::Prefix probe = world.drop.all_prefixes().front();

  // The follower: the event source and the publisher's single writer.
  std::thread follower([&] {
    const double cpu0 = thread_cpu_s();
    int day_no = 0;
    for (net::Date d = begin; d <= end; d = d + 1, ++day_no) {
      sleep_until_ns(due_of(d));
      while (s.next_event < events.size() && events[s.next_event].date == d) {
        const int64_t a0 = now_ns();
        const uint64_t seq = s.publisher->ingest(events[s.next_event]);
        const int64_t a1 = now_ns();
        r.busy_s += static_cast<double>(a1 - a0) / 1e9;
        if (trace) {
          r.ingest_spans.emplace_back(seq, trace->add(0, seq + 1, "ingest", a0, a1));
        }
        ++s.next_event;
        ++r.window_events;
      }
      if (day_no % kCompactEvery == 0 || d == end) {
        const int64_t c0 = now_ns();
        std::shared_ptr<const svc::Snapshot> head =
            s.publisher->compact(d, ++s.version);
        const int64_t c1 = now_ns();
        s.server->publish(head);
        {
          // Keep the heads a frame in flight can still be answered from.
          std::lock_guard<std::mutex> lock(heads_mu);
          heads[s.version] = head;
          while (heads.size() > kHeadsKept) heads.erase(heads.begin());
        }
        head_date.store(d.days());
        // The head is live once a query for its date answers from it.
        try {
          const svc::QueryResponse resp =
              s.probe_client->query({svc::Query{d, probe, svc::kAllFields}});
          if (resp.snapshot_version != s.version ||
              resp.answers.at(0) != head->lookup_reference(probe, svc::kAllFields)) {
            set_wrong("live head probe answered from the wrong snapshot");
          }
        } catch (const std::exception& e) {
          set_wrong(std::string("live head probe failed: ") + e.what());
        }
        const int64_t c2 = now_ns();
        r.busy_s += static_cast<double>(c1 - c0) / 1e9;
        r.compact_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
        r.compact_publish_ms.push_back(static_cast<double>(c2 - c0) / 1e6);
        r.last_head = head;
        s.publisher->trim(kTrimKeep);
      }
    }
    r.follower_cpu_s = thread_cpu_s() - cpu0;
  });

  // The subscriber: tails the log until every window event has arrived.
  std::thread subscriber([&] {
    uint64_t last_seq = first_window_event;
    while (last_seq < events.size() && events[last_seq].date <= end) ++last_seq;
    uint64_t poll_no = 0;
    const int64_t give_up =
        start + static_cast<int64_t>(seconds * 1e9) + 30'000'000'000;
    while (s.subscriber->next() < last_seq && now_ns() < give_up) {
      const uint64_t from = s.subscriber->next();
      const int64_t p0 = now_ns();
      stream::Delta d;
      try {
        d = s.subscriber->poll(stream::kMaxDeltaEvents);
      } catch (const std::exception& e) {
        set_wrong(std::string("subscriber poll failed: ") + e.what());
        return;
      }
      const int64_t p1 = now_ns();
      if (trace) {
        const uint64_t request = kPollRequests + ++poll_no;
        const std::string frame = svc::encode_frame(
            svc::FrameType::kSubscribeRequest,
            stream::encode_subscribe({from, stream::kMaxDeltaEvents}));
        const uint64_t id = trace->add(0, request, "poll", p0, p1);
        r.poll_records.push_back(
            ClientRecord{request, frame_fingerprint(frame), p0, p1, id});
      }
      if (d.reset) {
        set_wrong("subscriber was reset");
        return;
      }
      for (size_t i = 0; i < d.events.size(); ++i) {
        const uint64_t seq = from + i;
        if (!same_event(d.events[i], events[seq])) {
          set_wrong("delta event differs from the stream at seq " +
                    std::to_string(seq));
          return;
        }
        const int64_t due = due_of(events[seq].date);
        r.event_to_delta_us.push_back(static_cast<double>(p1 - due) / 1e3);
        if (trace) {
          trace->add(0, seq + 1, "event", due, p1);
        }
      }
      r.delta_alarms.insert(r.delta_alarms.end(), d.alarms.begin(), d.alarms.end());
      if (d.events.empty()) sleep_until_ns(now_ns() + kPollIdleNs);
    }
  });

  // The head load: open loop against the live head's date.
  auto send_head = [&](int, size_t k) {
    // A publish between reading the head date and serving the frame leaves
    // the old date unservable; re-ask for the new head.
    for (int attempt = 0;; ++attempt) {
      const net::Date d(head_date.load());
      std::vector<svc::Query> queries;
      for (const net::Prefix& p : head_items.prefixes[k]) {
        queries.push_back(svc::Query{d, p, svc::kAllFields});
      }
      const int64_t t0 = now_ns();
      const svc::QueryResponse resp = s.head_client->query(queries);
      const int64_t t1 = now_ns();
      std::shared_ptr<const svc::Snapshot> snap;
      {
        std::lock_guard<std::mutex> lock(heads_mu);
        auto h = heads.find(resp.snapshot_version);
        if (h != heads.end()) snap = h->second;
      }
      if (!snap || snap->date() != d) {
        if (attempt < 3 && net::Date(head_date.load()) != d) {
          ++r.head_retries;
          continue;
        }
        throw WrongAnswer("head query not answered by the live head");
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        if (resp.answers[i] !=
            snap->lookup_reference(queries[i].prefix, queries[i].fields)) {
          throw WrongAnswer("head answer differs from the head's reference");
        }
      }
      if (trace) {
        const uint64_t request = kHeadRequests + k + 1;
        r.records.push_back(ClientRecord{
            request, frame_fingerprint(svc::encode_query_request(queries)), t0,
            t1, trace->add(0, request, "frame", t0, t1)});
      }
      return;
    }
  };
  std::thread head_load([&] {
    try {
      r.head = run_open_loop(start, head_items.offsets, 1, send_head, [&](int) {
        s.head_conn = s.edge->connect();
        s.head_client = std::make_unique<svc::Client>(*s.head_conn);
      });
    } catch (const WrongAnswer& e) {
      set_wrong(e.what());
    }
  });

  follower.join();
  subscriber.join();
  head_load.join();
  r.records.insert(r.records.end(), r.poll_records.begin(), r.poll_records.end());
  if (!wrong.empty()) throw WrongAnswer("live-follow: " + wrong);
  return r;
}

/// The batch oracles: online alarms against core::analyze_alarms (and the
/// alarms the deltas carried), and the final compaction against
/// compile_snapshot of that day.
void check_against_batch(const sim::World& world, util::ThreadPool& pool,
                         const Serving& s, const PhaseResult& r) {
  Engine engine(world, pool);
  const core::AlarmResult batch = core::analyze_alarms(engine.study, engine.index);
  const std::vector<core::Alarm>& online = s.publisher->monitor().alarms();
  std::vector<core::Alarm> delivered = s.delivered_alarms;
  delivered.insert(delivered.end(), r.delta_alarms.begin(), r.delta_alarms.end());
  if (online.size() != batch.alarms.size() || delivered.size() != online.size()) {
    throw WrongAnswer("live-follow: alarm counts differ (online " +
                      std::to_string(online.size()) + ", batch " +
                      std::to_string(batch.alarms.size()) + ", delivered " +
                      std::to_string(delivered.size()) + ")");
  }
  for (size_t i = 0; i < online.size(); ++i) {
    const core::Alarm& a = online[i];
    const core::Alarm& b = batch.alarms[i];
    const core::Alarm& c = delivered[i];
    if (a.kind != b.kind || a.prefix != b.prefix || a.monitored != b.monitored ||
        a.when != b.when || a.new_origin != b.new_origin ||
        a.on_drop != b.on_drop || c.kind != a.kind || c.prefix != a.prefix ||
        c.when != a.when) {
      throw WrongAnswer("live-follow: alarm " + std::to_string(i) +
                        " differs from core::analyze_alarms");
    }
  }
  const net::Date last = world.config.window_end;
  const auto compiled = svc::compile_snapshot(engine.study, engine.index, last, 1);
  if (!r.last_head || r.last_head->date() != last ||
      !stream::snapshots_equal(*r.last_head, *compiled)) {
    throw WrongAnswer("live-follow: final compact() differs from compile_snapshot");
  }
}

void traced_layers(Result& res, Serving& s, const PhaseResult& r,
                   const std::vector<stream::Event>& events,
                   const sim::World& world, Trace& trace, const Options& opt,
                   const TracedPhase& probe) {
  const std::vector<ServedFrame> served = s.edge->tracer()->take_served();
  std::vector<double> serve_us, overhead_us;
  for (const MatchedFrame& m : match_served(trace, r.records, served)) {
    if (r.records[m.record].request >= kPollRequests) continue;
    serve_us.push_back(m.serve_us);
    overhead_us.push_back(m.overhead_us);
  }
  std::vector<double> subscribe_us;
  for (const Span& sp : trace.spans()) {
    if (sp.name == "subscribe") {
      subscribe_us.push_back(static_cast<double>(sp.duration()) / 1e3);
    }
  }

  // Hang each event's live ingest span under its event root, then replay
  // the ingest path's three layers over the same stream, one span each.
  std::map<uint64_t, uint64_t> root_of;  // seq + 1 -> event span
  for (const Span& sp : trace.spans()) {
    if (sp.name == "event") root_of[sp.request] = sp.id;
  }
  std::map<uint64_t, uint64_t> ingest_of;
  for (const auto& [seq, id] : r.ingest_spans) {
    auto it = root_of.find(seq + 1);
    if (it == root_of.end()) continue;
    trace.set_parent(id, it->second, seq + 1);
    ingest_of[seq] = id;
  }
  // A second Publisher and a separate Applier, AlarmMonitor and EventLog
  // take the same stream from its start. For each event, Publisher::ingest
  // and the three layer calls are timed; whichever runs first touches the
  // event's data cold, so they take turns going first. For a followed event
  // the spans hang under its live ingest span.
  stream::Publisher publisher(monitor_config(world));
  publisher.seed_rir(world.registry);
  stream::Applier applier;
  applier.seed_rir(world.registry);
  stream::AlarmMonitor monitor(monitor_config(world));
  stream::EventLog log;
  double apply_ns = 0, alarm_ns = 0, append_ns = 0;
  size_t timed = 0;
  std::vector<uint64_t> requests;
  for (size_t i = 0; i < events.size() && events[i].date <= world.config.window_end;
       ++i) {
    int64_t i0 = 0, i1 = 0;
    if (i % 2 == 0) {
      i0 = now_ns();
      publisher.ingest(events[i]);
      i1 = now_ns();
    }
    const int64_t t0 = now_ns();
    applier.apply(events[i]);
    const int64_t t1 = now_ns();
    monitor.on_event(events[i]);
    const int64_t t2 = now_ns();
    log.append(events[i]);
    const int64_t t3 = now_ns();
    if (i % 2 == 1) {
      i0 = now_ns();
      publisher.ingest(events[i]);
      i1 = now_ns();
    }
    auto it = ingest_of.find(i);
    if (it == ingest_of.end()) continue;
    const uint64_t replayed = trace.add(it->second, i + 1, "ingest.replayed", i0, i1);
    trace.add(replayed, i + 1, "apply", t0, t1);
    trace.add(replayed, i + 1, "alarm", t1, t2);
    trace.add(replayed, i + 1, "append", t2, t3);
    apply_ns += static_cast<double>(t1 - t0);
    alarm_ns += static_cast<double>(t2 - t1);
    append_ns += static_cast<double>(t3 - t2);
    ++timed;
    requests.push_back(i + 1);
  }
  add_add_up(res, trace, requests, "ingest.replayed", {"apply", "alarm", "append"},
             kAddUpTolerance);
  const double n = static_cast<double>(std::max<size_t>(timed, 1));
  res.add_layer("stream.apply_ns", "ns", apply_ns / n, timed);
  res.add_layer("stream.alarm_ns", "ns", alarm_ns / n, timed);
  res.add_layer("stream.append_ns", "ns", append_ns / n, timed);
  res.add_layer("stream.subscribe_us", "us", median(subscribe_us),
                subscribe_us.size());
  res.add_layer("stream.compact_ms", "ms", median(r.compact_ms),
                r.compact_ms.size());
  res.add_layer("stream.rejected", "count",
                static_cast<double>(s.publisher->applier().rejected()));
  res.add_layer("stream.alarms", "count",
                static_cast<double>(s.publisher->monitor().alarms().size()));
  res.add_layer("stream.resets", "count",
                static_cast<double>(s.subscriber->resets()));
  res.add_layer("svc.server.serve_us", "us", median(serve_us), serve_us.size());
  res.add_layer("svc.transport.overhead_us", "us", median(overhead_us),
                overhead_us.size());
  add_store_layers(res, s.store->stats());
  add_phase_layers(res, s.edge->transport(), probe, trace, opt,
                   "live-follow");
}

}  // namespace

Result run_live(const Options& opt, bool traced) {
  Result res;
  sim::ScenarioConfig config;
  config.seed ^= opt.seed * 0x9e3779b97f4a7c15ULL;
  const auto world = sim::generate(config);
  const sim::EventReplayer replayer(*world);
  const std::vector<stream::Event>& events = replayer.events();
  util::ThreadPool pool(util::ThreadPool::default_thread_count());
  const int window_days = config.window_end - config.window_begin + 1;
  const int followed =
      std::clamp(static_cast<int>(std::lround(opt.seconds * kDaysPerSecond)),
                 1, window_days);
  const net::Date follow_from = config.window_end - (followed - 1);
  res.notes.push_back(
      "last " + std::to_string(followed) + " window days followed in " +
      std::to_string(opt.seconds) + " s, compaction every " +
      std::to_string(kCompactEvery) +
      " days; 1 subscriber, head load open loop at " +
      std::to_string(static_cast<int>(kHeadRate)) +
      " frames/s, 1 probe connection; pool=" +
      std::to_string(pool.concurrency()) +
      " event_threads=" + std::to_string(Edge::kEventThreads));

  std::vector<double> setup_s;
  std::unique_ptr<Serving> s;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    s = set_up(*world, events, follow_from, pool, traced);
    setup_s.push_back(s->setup_s);
  }
  const HeadSchedule head_items = head_schedule(*world, opt.seed, opt.seconds);

  if (!reset_peak_rss()) res.notes.push_back("peak RSS could not be reset");
  Trace trace;
  TracedPhase phase_probe(*s->edge, traced ? &trace : nullptr);
  const PhaseResult r = run_phase(*s, *world, events, head_items, follow_from,
                                  opt.seconds, phase_probe.trace());
  phase_probe.stop();
  // Read before the batch oracle below builds an engine of its own.
  const double peak_mb = peak_rss_mb();
  check_against_batch(*world, pool, *s, r);

  res.failures = r.head.failures;
  // Head queries are timed as round trips, from the send: the live head's
  // latency under ingest, without the generator's own lateness (reported
  // separately).
  const OpenLoopSummary head_load = summarize_open_loop(r.head.samples);
  const Summary& head = head_load.round_trip_us;
  const Summary& late = head_load.lateness_us;
  const Summary e2d = summarize(r.event_to_delta_us);
  res.add_e2e("setup_s", "s", median(setup_s), setup_s.size(),
              "to the first delta");
  res.add_e2e("peak_rss_mb", "MiB", peak_mb, 1, "over the measured phase");
  res.add_e2e("work_per_cpu_s", "1/s",
              static_cast<double>(r.window_events) / r.follower_cpu_s,
              r.window_events,
              "ingested events per CPU second of the follower thread "
              "(ingest, compaction, publish)");
  res.add_extra("events_per_s", "1/s",
                static_cast<double>(r.window_events) / r.busy_s,
                r.window_events, "whole run, ingest and compaction time");
  res.add_extra("frame_p50_us", "us", head.p50, head.n,
                describe_median(head) + ", live-head frames from the send");
  res.add_extra("frame_p99_us", "us", head.tail.value, head.n,
                describe_tail(head) + ", live-head frames from the send");
  res.add_extra("event_to_delta_p50_us", "us", e2d.p50, e2d.n);
  res.add_extra("event_to_delta_p99_us", "us", e2d.tail.value, e2d.n,
                describe_tail(e2d));
  res.add_extra("compact_publish_ms", "ms", median(r.compact_publish_ms),
                r.compact_publish_ms.size(), "median");
  res.add_extra("head_query_p99_us", "us", head.tail.value, head.n,
                describe_tail(head));
  res.add_extra("generator_late_p99_us", "us", late.tail.value, late.n,
                describe_tail(late));
  res.add_extra("head_retries", "count", static_cast<double>(r.head_retries),
                head.n, "head moved while a frame was in flight");
  res.add_extra("failed_ratio", "ratio", r.head.failures.ratio(),
                r.head.failures.attempted);
  if (traced) {
    traced_layers(res, *s, r, events, *world, trace, opt, phase_probe);
  }
  return res;
}

}  // namespace perfbench
