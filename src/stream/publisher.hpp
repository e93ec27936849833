// The live side of delta publication: log + applier + alarms, one object.
//
// A Publisher owns the ingest path of a streaming droplensd: every event is
// (1) applied to the live Applier state, (2) run through the online
// AlarmMonitor — alarms are recorded against the event's sequence number —
// and (3) appended to the EventLog, in that order, so a subscriber that can
// see an event in the log can always see the alarms it raised. compact()
// folds the state into an immutable svc::Snapshot (the zero-downtime
// publish artifact), and trim() discards delivered history afterwards —
// subscribers that fell behind the floor get the RTR-style reset.
//
// Publisher implements svc::StreamFeed, so a svc::Server with
// set_stream_feed(&publisher) serves kSubscribeRequest frames from any
// transport thread. Threading contract: ingest()/compact()/trim() are
// single-writer (the follower thread); handle_subscribe() and the accessors
// are safe concurrently with the writer.
//
// Observability (per the obs registry conventions):
//   droplens_stream_events_ingested_total / _applied_total / _rejected_total
//   droplens_stream_alarms_total{kind}
//   droplens_stream_ingest_alarm_latency_ns   (log2 histogram)
//   droplens_stream_compactions_total, _deltas_total, _resets_total
//   droplens_stream_compact_duration_ns       (log2 histogram)
//   droplens_stream_compact_regions_total     (regions compactions rebuilt)
//   droplens_stream_head_seq                  (gauge)
//   droplens_stream_ingest_lag_seconds        (gauge, see
//                                              refresh_ingest_lag_gauge)
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "svc/transport.hpp"
#include "stream/alarm_monitor.hpp"
#include "stream/applier.hpp"
#include "stream/event_log.hpp"
#include "stream/wire.hpp"
#include "svc/server.hpp"

namespace droplens::stream {

class Publisher : public svc::StreamFeed {
 public:
  explicit Publisher(AlarmMonitor::Config alarm_config);

  /// Forwarded to the Applier; call once before the first compact().
  void seed_rir(const rir::Registry& registry);

  /// Ingest one event: apply, run the alarm rules, append to the log.
  /// Returns the assigned sequence number. Single-writer.
  uint64_t ingest(const Event& e);

  /// Fold live state into a snapshot for day `d` (see Applier::compact).
  std::shared_ptr<const svc::Snapshot> compact(net::Date d, uint64_t version);

  /// Discard delivered history, keeping the last `keep_last` events (their
  /// alarms are kept alongside). Lagging subscribers past the new floor
  /// will be told to reset.
  void trim(size_t keep_last);

  // svc::StreamFeed --------------------------------------------------------
  std::string handle_subscribe(std::string_view payload) override;

  uint64_t head() const { return log_.head(); }
  const Applier& applier() const { return applier_; }
  const AlarmMonitor& monitor() const { return monitor_; }
  const EventLog& log() const { return log_; }

  /// Seconds since the last ingest() returned (since construction before
  /// the first event) — the feed-liveness signal. Safe from any thread.
  double ingest_lag_seconds() const;
  /// Recompute droplens_stream_ingest_lag_seconds from the same clock —
  /// the admin plane runs this as a refresh hook before /metrics and
  /// /healthz render, so scrapes and health checks agree.
  void refresh_ingest_lag_gauge() {
    ingest_lag_.set(static_cast<int64_t>(ingest_lag_seconds()));
  }

 private:
  EventLog log_;
  Applier applier_;
  AlarmMonitor monitor_;

  /// Guards alarm_log_ and date_ against concurrent handle_subscribe reads.
  /// (applier_/monitor_ are writer-thread-only; log_ locks itself.)
  mutable std::mutex mu_;
  /// (event sequence, alarm) in firing order — the per-delta alarm source.
  std::deque<std::pair<uint64_t, core::Alarm>> alarm_log_;
  net::Date date_;

  obs::Counter ingested_;
  obs::Counter applied_;
  obs::Counter rejected_;
  obs::Counter alarms_new_origin_;
  obs::Counter alarms_moas_;
  obs::Counter alarms_sub_prefix_;
  obs::Counter compactions_;
  obs::Counter compact_regions_;
  obs::Counter deltas_;
  obs::Counter resets_;
  obs::Gauge head_seq_;
  obs::Gauge ingest_lag_;
  obs::Histogram alarm_latency_;
  obs::Histogram compact_duration_;
  /// Ingest traces land in the flight recorder's "ingest" op class, with
  /// apply/alarm/append stage timings — the same machinery that traces
  /// requests, following the ingest path's thread hops instead.
  svc::TraceBinding ingest_trace_{"ingest"};
  std::atomic<uint64_t> last_ingest_ns_{0};  // steady clock at last ingest
};

}  // namespace droplens::stream
