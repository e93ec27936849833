#include "stream/publisher.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"

namespace droplens::stream {

namespace {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Publisher::Publisher(AlarmMonitor::Config alarm_config)
    : monitor_(alarm_config) {
  last_ingest_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  ingested_ = obs::counter("droplens_stream_events_ingested_total", {},
                           "Events offered to the publisher");
  applied_ = obs::counter("droplens_stream_events_applied_total", {},
                          "Events that mutated live state");
  rejected_ = obs::counter("droplens_stream_events_rejected_total", {},
                           "Events the applier rejected");
  alarms_new_origin_ =
      obs::counter("droplens_stream_alarms_total", {{"kind", "new-origin"}},
                   "Online alarms raised, by kind");
  alarms_moas_ = obs::counter("droplens_stream_alarms_total",
                              {{"kind", "moas"}}, "Online alarms raised, by kind");
  alarms_sub_prefix_ =
      obs::counter("droplens_stream_alarms_total", {{"kind", "new-sub-prefix"}},
                   "Online alarms raised, by kind");
  compactions_ = obs::counter("droplens_stream_compactions_total", {},
                              "Live-state compactions into snapshots");
  compact_regions_ = obs::counter(
      "droplens_stream_compact_regions_total", {},
      "Address regions compactions rebuilt (whole space: one per substrate)");
  deltas_ = obs::counter("droplens_stream_deltas_total", {},
                         "Delta responses served");
  resets_ = obs::counter("droplens_stream_resets_total", {},
                         "Subscriber resets (history trimmed past them)");
  head_seq_ = obs::gauge("droplens_stream_head_seq", {},
                         "Next event sequence number");
  ingest_lag_ = obs::gauge(
      "droplens_stream_ingest_lag_seconds", {},
      "Seconds since the last event was ingested (feed liveness)");
  alarm_latency_ = obs::histogram(
      "droplens_stream_ingest_alarm_latency_ns",
      obs::Registry::log2_bounds(39), {},
      "Ingest-to-alarm latency in nanoseconds (log2 buckets)");
  compact_duration_ = obs::histogram(
      "droplens_stream_compact_duration_ns", obs::Registry::log2_bounds(39),
      {}, "Compaction duration in nanoseconds (log2 buckets)");
}

void Publisher::seed_rir(const rir::Registry& registry) {
  applier_.seed_rir(registry);
}

double Publisher::ingest_lag_seconds() const {
  const uint64_t last = last_ingest_ns_.load(std::memory_order_relaxed);
  const uint64_t now = steady_now_ns();
  return now > last ? static_cast<double>(now - last) * 1e-9 : 0.0;
}

uint64_t Publisher::ingest(const Event& e) {
  const auto start = std::chrono::steady_clock::now();
  obs::SpanContext trace = ingest_trace_.begin();
  ingested_.inc();
  // The sequence the log WILL assign — safe to read ahead because ingest is
  // the only appender.
  const uint64_t seq = log_.head();

  trace.stage("apply");
  if (applier_.apply(e)) {
    applied_.inc();
  } else {
    rejected_.inc();
  }

  trace.stage("alarm");
  const size_t before = monitor_.alarms().size();
  const size_t raised = monitor_.on_event(e);
  if (raised > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = before; i < before + raised; ++i) {
      const core::Alarm& a = monitor_.alarms()[i];
      alarm_log_.emplace_back(seq, a);
      switch (a.kind) {
        case core::AlarmKind::kNewOrigin: alarms_new_origin_.inc(); break;
        case core::AlarmKind::kMoas: alarms_moas_.inc(); break;
        case core::AlarmKind::kNewSubPrefix: alarms_sub_prefix_.inc(); break;
      }
    }
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    for (size_t i = 0; i < raised; ++i) {
      alarm_latency_.observe(static_cast<uint64_t>(ns));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    date_ = e.date;
  }

  // Append last: once an event is visible in the log, its alarms are
  // already in alarm_log_ (the subscriber-side completeness invariant).
  trace.stage("append");
  const uint64_t assigned = log_.append(e);
  head_seq_.set(static_cast<int64_t>(assigned + 1));
  last_ingest_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  trace.finish("ok");
  return assigned;
}

std::shared_ptr<const svc::Snapshot> Publisher::compact(net::Date d,
                                                        uint64_t version) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const svc::Snapshot> snapshot = applier_.compact(d, version);
  compact_duration_.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  compact_regions_.inc(applier_.last_compact_regions());
  compactions_.inc();
  return snapshot;
}

void Publisher::trim(size_t keep_last) {
  const uint64_t head = log_.head();
  const uint64_t floor = head > keep_last ? head - keep_last : 0;
  log_.trim(floor);
  std::lock_guard<std::mutex> lock(mu_);
  while (!alarm_log_.empty() && alarm_log_.front().first < floor) {
    alarm_log_.pop_front();
  }
}

std::string Publisher::handle_subscribe(std::string_view payload) {
  try {
    SubscribeRequest request = decode_subscribe(payload);
    const size_t max_events =
        std::min<size_t>(request.max_events, kMaxDeltaEvents);
    EventLog::Tail tail = log_.since(request.from_seq, max_events);

    Delta delta;
    delta.head = tail.head;
    delta.from = tail.from;
    delta.reset = tail.gap;
    delta.events = std::move(tail.events);
    {
      std::lock_guard<std::mutex> lock(mu_);
      delta.date = date_;
      if (!delta.reset && !delta.events.empty()) {
        const uint64_t lo = delta.from;
        const uint64_t hi = delta.from + delta.events.size();
        // alarm_log_ is sorted by event sequence (firing order).
        auto first = std::lower_bound(
            alarm_log_.begin(), alarm_log_.end(), lo,
            [](const auto& entry, uint64_t s) { return entry.first < s; });
        for (auto it = first; it != alarm_log_.end() && it->first < hi; ++it) {
          delta.alarms.push_back(it->second);
        }
      }
    }
    if (delta.reset) resets_.inc();
    deltas_.inc();
    return svc::encode_frame(svc::FrameType::kDeltaResponse,
                             encode_delta(delta));
  } catch (const ParseError& e) {
    return svc::encode_error(e.what());
  }
}

}  // namespace droplens::stream
