// Shared pieces of the droplens benchmark: options, the result record and
// its printing, clocks, the server wiring droplensd uses, and the
// hooks the traced run hangs its spans on.
#pragma once

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/drop_index.hpp"
#include "core/snapshot_cache.hpp"
#include "core/study.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/world.hpp"
#include "stats.hpp"
#include "svc/client.hpp"
#include "svc/epoll_transport.hpp"
#include "svc/server.hpp"
#include "svc/transport.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space for .dls files and span dumps
};

int64_t now_ns();
void sleep_until_ns(int64_t t);
double ms_since(int64_t start_ns);
double median(std::vector<double> v);
/// CPU time used so far by the whole process, and by the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Samples a closed loop at the boundaries of `slices` equal stretches of
/// `seconds` from construction: the work done so far (a counter the client
/// threads add to), the wall clock, and the process's CPU time less the
/// client threads'. Its own thread sleeps between readings.
class LoopSampler {
 public:
  LoopSampler(const std::vector<pthread_t>& clients,
              const std::atomic<uint64_t>& work, double seconds,
              size_t slices = 10);
  ~LoopSampler() { join(); }
  LoopSampler(const LoopSampler&) = delete;
  LoopSampler& operator=(const LoopSampler&) = delete;

  /// True once the last reading is taken; clients run until then.
  bool done() const { return done_.load(); }
  /// Wait for the last reading.
  void join();
  /// Work per second and per CPU second of the program, each the median
  /// over the stretches (median_rate); call after join().
  double wall_rate() const { return median_rate(work_, wall_s_); }
  double cpu_rate() const { return median_rate(work_, cpu_s_); }

 private:
  std::vector<double> work_, wall_s_, cpu_s_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

/// Return freed heap to the system and restart the kernel's peak-RSS count
/// (VmHWM) at the current RSS, so peak_rss_mb() covers only what follows.
/// False when the count cannot be reset; peak_rss_mb() is then the peak of
/// the process's whole life.
bool reset_peak_rss();
/// Peak resident memory since the last reset_peak_rss(), in MiB.
double peak_rss_mb();

/// Poisson arrival times, in ns after a schedule's start, at `rate` per
/// second over `seconds`.
std::vector<int64_t> poisson_offsets(uint64_t seed, double rate,
                                     double seconds);

/// What an open-loop sender saw: one sample per answered frame, in send
/// order per connection, and every frame's outcome.
struct OpenLoopRun {
  std::vector<OpenLoopSample> samples;
  std::vector<size_t> item;  // the schedule index of each sample
  Failures failures;
};

/// Send frame k of a schedule at start_ns + offsets[k] on connection
/// k mod `conns`, one sender thread per connection. `send(c, k)` sends the
/// frame on connection c and checks the reply: it throws WrongAnswer on a
/// wrong answer, which stops every sender and is rethrown here, and anything
/// else on a failed frame, which is counted before `reconnect(c)` runs and
/// the connection goes on with its next frame. A late sender sends at once;
/// samples keep the due time, so latency counts from it.
OpenLoopRun run_open_loop(int64_t start_ns, const std::vector<int64_t>& offsets,
                          int conns,
                          const std::function<void(int, size_t)>& send,
                          const std::function<void(int)>& reconnect);

/// The engine pieces droplensd builds around a world: a study over the
/// world's feeds with the shared SnapshotCache and ThreadPool attached, and
/// the DROP index.
struct Engine {
  Engine(const droplens::sim::World& w, droplens::util::ThreadPool& pool)
      : cache(w.registry, w.fleet, w.roas, w.drop, &w.irr),
        study{w.registry, w.fleet, w.irr,
              w.roas,     w.drop,  w.sbl,
              w.config.window_begin, w.config.window_end,
              &cache,     &pool},
        index(droplens::core::DropIndex::build(study)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Hits over lookups of the SnapshotCache so far.
  double cache_hit_ratio() const;

  droplens::core::SnapshotCache cache;
  droplens::core::Study study;
  droplens::core::DropIndex index;
};

/// A wrong served answer. The run aborts on the first one.
class WrongAnswer : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
  std::string note;  // e.g. which percentile a "_p99" really is
};

struct Result {
  bool correct = true;
  Failures failures;
  /// The gated end-to-end metrics, printed in the JSON line untraced.
  std::vector<Metric> e2e;
  /// Workload-specific end-to-end metrics: printed, not in the JSON line.
  std::vector<Metric> extra;
  /// Per-layer metrics, printed in the JSON line traced.
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  void add_e2e(std::string name, std::string unit, double value, size_t n,
               std::string note = "");
  void add_extra(std::string name, std::string unit, double value, size_t n,
                 std::string note = "");
  void add_layer(std::string name, std::string unit, double value,
                 size_t n = 0);
  /// An end-to-end metric by name, gated or workload-specific.
  const Metric* find_e2e(const std::string& name) const;
};

/// Untraced and traced numbers of the same run: each gated metric of the
/// traced pass minus the untraced pass, as trace.overhead.* layer metrics.
void add_overhead(Result& traced, const Result& untraced);

/// Fixed order and units of every per-layer metric; a run reports each,
/// with 0 for layers its workload does not exercise.
void complete_layers(Result& r);

/// The cheap frame identity used to pair a server-side serve span with the
/// client request that sent the frame: length plus a hash of its head.
uint64_t frame_fingerprint(std::string_view frame);

/// A hash of a response, so a replayed serve can be checked against the
/// live one without keeping every response.
uint64_t response_hash(std::string_view response);

/// A server-side span waiting to be matched to its client request.
struct ServedFrame {
  uint64_t fingerprint = 0;
  uint64_t response = 0;  // response_hash of what the live serve returned
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t span_id = 0;
  std::vector<uint64_t> children;  // spans recorded inside this serve call
};

/// Wraps svc::Server as the transport's Service, so a traced pass can time
/// Server::serve on the event thread that runs it and set-up can see which
/// event thread serves a connection. Every call forwards unchanged; with no
/// trace attached and no thread watch on it adds two atomic loads.
class TracingService : public droplens::svc::Service {
 public:
  explicit TracingService(droplens::svc::Server& server) : server_(server) {}

  void attach(Trace* trace) { trace_.store(trace, std::memory_order_release); }
  std::vector<ServedFrame> take_served();

  /// While on, remember the thread that served the latest frame.
  void watch_threads(bool on) { watching_.store(on); }
  std::thread::id last_thread();

  /// Called by layer hooks running inside a traced serve (the stream feed):
  /// records a child span of the serve call in progress on this thread.
  static void note_child(const char* name, int64_t start_ns, int64_t end_ns);

  size_t message_size(std::string_view buffer) const override {
    return server_.message_size(buffer);
  }
  std::string serve(std::string_view message) override;
  std::string serve(std::string_view message,
                    droplens::obs::SpanContext& ctx) override;
  std::string malformed_response(std::string_view head) override {
    return server_.malformed_response(head);
  }
  droplens::svc::MessageClass classify(
      std::string_view message) const override {
    return server_.classify(message);
  }
  std::string overload_response(std::string_view message) override {
    return server_.overload_response(message);
  }
  std::string timeout_response() override {
    return server_.timeout_response();
  }

 private:
  droplens::svc::Server& server_;
  std::atomic<Trace*> trace_{nullptr};
  std::atomic<bool> watching_{false};
  std::mutex mu_;
  std::vector<ServedFrame> served_;
  std::thread::id last_thread_;
};

/// The query edge as droplensd runs it: an EpollServer with two event
/// threads in front of a store-mode Server, with a TracingService between
/// the two.
class Edge {
 public:
  explicit Edge(droplens::svc::Server& server);
  ~Edge();
  Edge(const Edge&) = delete;
  Edge& operator=(const Edge&) = delete;

  uint16_t port() const { return transport_->port(); }
  droplens::svc::EpollServer& transport() { return *transport_; }
  TracingService* tracer() { return tracer_.get(); }
  std::unique_ptr<droplens::svc::TcpClientConnection> connect() const;
  /// `n` connections spread evenly over the event threads. The transport
  /// hands each new connection to whichever idle event thread the kernel
  /// wakes first, nearly always the same one, so left alone 4 connections
  /// land 4-0, 3-1 or 2-2, and a closed loop's throughput follows. A
  /// connection on a crowded thread is replaced while another of that
  /// thread's connections keeps it busy serving `busy_frame`, so the other
  /// thread accepts (at most 64 tries).
  std::vector<std::unique_ptr<droplens::svc::TcpClientConnection>>
  connect_spread(size_t n, const std::string& busy_frame);

  static constexpr unsigned kEventThreads = 2;

 private:
  std::unique_ptr<TracingService> tracer_;
  std::unique_ptr<droplens::svc::EpollServer> transport_;
};

/// What a traced pass records around its load phase: the trace attached to
/// the edge's TracingService, EpollServer::inflight() sampled every 100 us,
/// and the pool tasks submitted. With a null trace it records nothing.
class TracedPhase {
 public:
  TracedPhase(Edge& edge, Trace* trace);
  ~TracedPhase() { stop(); }
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

  Trace* trace() const { return trace_; }
  /// Detach the trace and stop sampling; idempotent.
  void stop();
  size_t inflight_peak() const { return peak_.load(); }
  uint64_t pool_tasks() const { return pool_tasks_; }

 private:
  Edge& edge_;
  Trace* trace_;
  uint64_t tasks_at_start_ = 0;
  uint64_t pool_tasks_ = 0;
  bool stopped_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> peak_{0};
  std::thread sampler_;
};

/// One client request as the traced pass saw it.
struct ClientRecord {
  uint64_t request = 0;
  uint64_t fingerprint = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  uint64_t span_id = 0;  // the request's root span
};

/// A client request paired with the live serve of its frame.
struct MatchedFrame {
  size_t record = 0;  // index into the client records
  const ServedFrame* served = nullptr;
  double serve_us = 0;     // Server::serve on the event thread
  double overhead_us = 0;  // client round trip minus serve
};

/// Pair each served frame with the client request that sent it (same
/// fingerprint, served inside the request's send..receive window) and hang
/// the serve span, and its children, under the request's root span.
/// Unmatched requests are left out.
std::vector<MatchedFrame> match_served(Trace& trace,
                                       const std::vector<ClientRecord>& requests,
                                       const std::vector<ServedFrame>& served);

/// A value read from the installed registry (0 when absent).
uint64_t registry_counter(const std::string& name);

/// Stdout report: fingerprint, metrics with units and sample counts, then
/// one JSON line, always the last one printed.
void print_report(const Options& opt, const Result& r);

}  // namespace perfbench
