#include "bench.hpp"

#include <malloc.h>
#include <time.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "svc/protocol.hpp"

namespace perfbench {

namespace svc = droplens::svc;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(int64_t t) {
  const int64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

double ms_since(int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // reset the peak RSS
  clear.close();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::vector<int64_t> poisson_offsets(uint64_t seed, double rate,
                                     double seconds) {
  droplens::sim::Rng rng(seed);
  std::vector<int64_t> out;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate * 1e9;
    if (t >= seconds * 1e9) return out;
    out.push_back(static_cast<int64_t>(t));
  }
}

OpenLoopRun run_open_loop(int64_t start_ns, const std::vector<int64_t>& offsets,
                          int conns,
                          const std::function<void(int, size_t)>& send,
                          const std::function<void(int)>& reconnect) {
  struct PerConn {
    std::vector<OpenLoopSample> samples;
    std::vector<size_t> item;
    Failures failures;
    std::string wrong;
  };
  std::vector<PerConn> per(static_cast<size_t>(conns));
  std::atomic<bool> abort{false};
  OpenLoopRun out;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PerConn& pc = per[static_cast<size_t>(c)];
      for (size_t k = static_cast<size_t>(c);
           k < offsets.size() && !abort.load(std::memory_order_relaxed);
           k += static_cast<size_t>(conns)) {
        const int64_t due = start_ns + offsets[k];
        sleep_until_ns(due);
        const int64_t sent = now_ns();
        try {
          send(c, k);
        } catch (const WrongAnswer& e) {
          pc.wrong = e.what();
          abort.store(true);
          return;
        } catch (const std::exception& e) {
          pc.failures.count(classify_failure(e.what()));
          try {
            reconnect(c);
          } catch (const std::exception&) {
            // The next frame fails on the old connection and counts too.
          }
          continue;
        }
        pc.failures.count(Outcome::kOk);
        pc.samples.push_back(OpenLoopSample{due, sent, now_ns()});
        pc.item.push_back(k);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (PerConn& pc : per) {
    if (!pc.wrong.empty()) throw WrongAnswer(pc.wrong);
    out.samples.insert(out.samples.end(), pc.samples.begin(), pc.samples.end());
    out.item.insert(out.item.end(), pc.item.begin(), pc.item.end());
    out.failures.merge(pc.failures);
  }
  return out;
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

LoopSampler::LoopSampler(const std::vector<pthread_t>& clients,
                         const std::atomic<uint64_t>& work, double seconds,
                         size_t slices) {
  std::vector<clockid_t> clocks;
  for (pthread_t t : clients) {
    clockid_t id;
    if (pthread_getcpuclockid(t, &id) == 0) clocks.push_back(id);
  }
  const int64_t start = now_ns();
  thread_ = std::thread([this, clocks, &work, seconds, slices, start] {
    for (size_t k = 0; k <= slices; ++k) {
      sleep_until_ns(start + static_cast<int64_t>(seconds * 1e9 *
                                                  static_cast<double>(k) /
                                                  static_cast<double>(slices)));
      work_.push_back(static_cast<double>(work.load(std::memory_order_relaxed)));
      wall_s_.push_back(static_cast<double>(now_ns()) / 1e9);
      double cpu = process_cpu_s();
      for (clockid_t id : clocks) cpu -= cpu_clock_s(id);
      cpu_s_.push_back(cpu);
    }
    done_.store(true);
  });
}

void LoopSampler::join() {
  if (thread_.joinable()) thread_.join();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

double Engine::cache_hit_ratio() const {
  const droplens::core::SnapshotCache::Stats s = cache.stats();
  const double total = static_cast<double>(s.hits + s.misses);
  return total > 0 ? static_cast<double>(s.hits) / total : 0;
}

TracedPhase::TracedPhase(Edge& edge, Trace* trace) : edge_(edge), trace_(trace) {
  if (!trace_) return;
  edge_.tracer()->attach(trace_);
  tasks_at_start_ = registry_counter("droplens_pool_tasks_submitted_total");
  sampler_ = std::thread([this] {
    while (!stop_.load()) {
      const size_t v = edge_.transport().inflight();
      if (v > peak_.load()) peak_.store(v);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
}

void TracedPhase::stop() {
  if (!trace_ || stopped_) return;
  stopped_ = true;
  stop_.store(true);
  sampler_.join();
  pool_tasks_ =
      registry_counter("droplens_pool_tasks_submitted_total") - tasks_at_start_;
  edge_.tracer()->attach(nullptr);
}

void Result::add_e2e(std::string name, std::string unit, double value,
                     size_t n, std::string note) {
  e2e.push_back(Metric{std::move(name), std::move(unit), value, n,
                       std::move(note)});
}

void Result::add_extra(std::string name, std::string unit, double value,
                       size_t n, std::string note) {
  extra.push_back(Metric{std::move(name), std::move(unit), value, n,
                         std::move(note)});
}

void Result::add_layer(std::string name, std::string unit, double value,
                       size_t n) {
  layers.push_back(Metric{std::move(name), std::move(unit), value, n, ""});
}

const Metric* Result::find_e2e(const std::string& name) const {
  for (const std::vector<Metric>* list : {&e2e, &extra}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

namespace {

// Every per-layer metric, in print order, with its unit.
const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"net.search_ns.routed", "ns"},
      {"net.search_ns.as0", "ns"},
      {"net.search_ns.irr", "ns"},
      {"net.search_ns.allocated", "ns"},
      {"net.search_ns.drop", "ns"},
      {"net.search_ns.rov", "ns"},
      {"net.search_ns.rir", "ns"},
      {"svc.snapshot.lookup_batch_ns", "ns"},
      {"svc.snapshot.assemble_ns", "ns"},
      {"svc.protocol.decode_ns", "ns"},
      {"svc.protocol.encode_ns", "ns"},
      {"svc.server.serve_us", "us"},
      {"svc.server.range_us", "us"},
      {"svc.server.count_ns", "ns"},
      {"svc.server.fixed_ns", "ns"},
      {"svc.server.serve_us.pool1", "us"},
      {"svc.server.serve_us.pool2", "us"},
      {"svc.server.serve_us.pool4", "us"},
      {"svc.transport.overhead_us", "us"},
      {"svc.transport.shed", "count"},
      {"svc.transport.disconnects", "count"},
      {"svc.transport.inflight_peak", "count"},
      {"svc.store.hit_ratio", "ratio"},
      {"svc.store.get_hit_ns", "ns"},
      {"svc.store.get_miss_ms", "ms"},
      {"svc.store.evictions", "count"},
      {"svc.store.loads", "count"},
      {"svc.store.delta_loads", "count"},
      {"svc.io.compile_ms", "ms"},
      {"svc.io.save_ms", "ms"},
      {"svc.io.load_ms", "ms"},
      {"svc.io.file_bytes", "bytes"},
      {"svc.io.delta_ratio", "ratio"},
      {"core.snapshot_cache.hit_ratio", "ratio"},
      {"stream.apply_ns", "ns"},
      {"stream.alarm_ns", "ns"},
      {"stream.append_ns", "ns"},
      {"stream.subscribe_us", "us"},
      {"stream.compact_ms", "ms"},
      {"stream.rejected", "count"},
      {"stream.alarms", "count"},
      {"stream.resets", "count"},
      {"util.pool.tasks", "count"},
      {"trace.spans", "count"},
      {"trace.add_up_remainder", "ratio"},
      {"trace.add_up_within", "ratio"},
      {"trace.live_over_replayed", "ratio"},
      {"trace.overhead.work_per_cpu_s", "1/s"},
      {"trace.overhead.frame_p50_us", "us"},
      {"trace.overhead.frame_p99_us", "us"},
  };
  return kCatalog;
}

}  // namespace

void add_overhead(Result& traced, const Result& untraced) {
  for (const char* name : {"work_per_cpu_s", "frame_p50_us", "frame_p99_us"}) {
    const Metric* t = traced.find_e2e(name);
    const Metric* u = untraced.find_e2e(name);
    if (!t || !u) continue;
    traced.add_layer(std::string("trace.overhead.") + name, t->unit,
                     t->value - u->value, t->samples);
  }
}

void complete_layers(Result& r) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : layer_catalog()) {
    auto it = std::find_if(r.layers.begin(), r.layers.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it != r.layers.end()) {
      Metric m = *it;
      m.unit = unit;
      ordered.push_back(std::move(m));
    } else {
      ordered.push_back(Metric{name, unit, 0, 0, "not exercised"});
    }
  }
  r.layers = std::move(ordered);
}

uint64_t response_hash(std::string_view response) {
  return std::hash<std::string_view>{}(response) * 31 + response.size();
}

uint64_t frame_fingerprint(std::string_view frame) {
  const std::string_view head = frame.substr(0, std::min<size_t>(frame.size(), 96));
  return std::hash<std::string_view>{}(head) * 31 + frame.size();
}

// --- TracingService --------------------------------------------------------

namespace {

struct PendingChild {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};
thread_local std::vector<PendingChild>* t_pending = nullptr;

}  // namespace

void TracingService::note_child(const char* name, int64_t start_ns,
                                int64_t end_ns) {
  if (t_pending) t_pending->push_back(PendingChild{name, start_ns, end_ns});
}

std::string TracingService::serve(std::string_view message) {
  droplens::obs::SpanContext inert;
  return serve(message, inert);
}

std::thread::id TracingService::last_thread() {
  std::lock_guard<std::mutex> lock(mu_);
  return last_thread_;
}

std::string TracingService::serve(std::string_view message,
                                  droplens::obs::SpanContext& ctx) {
  if (watching_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(mu_);
    last_thread_ = std::this_thread::get_id();
  }
  Trace* trace = trace_.load(std::memory_order_acquire);
  if (!trace) return server_.serve(message, ctx);
  std::vector<PendingChild> pending;
  t_pending = &pending;
  const int64_t start = now_ns();
  std::string response = server_.serve(message, ctx);
  const int64_t end = now_ns();
  t_pending = nullptr;
  ServedFrame f;
  f.fingerprint = frame_fingerprint(message);
  f.response = response_hash(response);
  f.start_ns = start;
  f.end_ns = end;
  f.span_id = trace->add(0, 0, "serve", start, end);
  for (const PendingChild& c : pending) {
    f.children.push_back(trace->add(f.span_id, 0, c.name, c.start_ns, c.end_ns));
  }
  std::lock_guard<std::mutex> lock(mu_);
  served_.push_back(std::move(f));
  return response;
}

std::vector<ServedFrame> TracingService::take_served() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(served_);
}

// --- Edge --------------------------------------------------------------------

Edge::Edge(svc::Server& server)
    : tracer_(std::make_unique<TracingService>(server)) {
  svc::TransportOptions options;
  options.name = "query";
  options.event_threads = kEventThreads;
  transport_ = std::make_unique<svc::EpollServer>(*tracer_, options);
}

Edge::~Edge() {
  if (transport_) transport_->stop();
}

std::unique_ptr<svc::TcpClientConnection> Edge::connect() const {
  return std::make_unique<svc::TcpClientConnection>("127.0.0.1", port(),
                                                    svc::frame_size);
}

std::vector<std::unique_ptr<svc::TcpClientConnection>> Edge::connect_spread(
    size_t n, const std::string& busy_frame) {
  std::vector<std::unique_ptr<svc::TcpClientConnection>> conns(n);
  std::vector<std::thread::id> owner(n);
  tracer_->watch_threads(true);
  auto place = [&](size_t i) {
    conns[i].reset();
    conns[i] = connect();
    svc::Client(*conns[i]).stats();
    owner[i] = tracer_->last_thread();
  };
  for (size_t i = 0; i < n; ++i) place(i);
  const size_t fair = (n + kEventThreads - 1) / kEventThreads;
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::map<std::thread::id, size_t> load;
    for (const std::thread::id& t : owner) ++load[t];
    size_t crowded = n;
    for (size_t i = 0; i < n && crowded == n; ++i) {
      if (load[owner[i]] > fair) crowded = i;
    }
    if (crowded == n) break;
    size_t keep_busy = n;
    for (size_t j = 0; j < n && keep_busy == n; ++j) {
      if (j != crowded && owner[j] == owner[crowded]) keep_busy = j;
    }
    std::thread busy;
    if (keep_busy != n) {
      busy = std::thread([&conns, keep_busy, &busy_frame] {
        try {
          conns[keep_busy]->roundtrip(busy_frame);
        } catch (const std::exception&) {
          // A failed busy frame only makes this try less likely to land.
        }
      });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    place(crowded);
    if (busy.joinable()) busy.join();
  }
  tracer_->watch_threads(false);
  return conns;
}

std::vector<MatchedFrame> match_served(Trace& trace,
                                       const std::vector<ClientRecord>& requests,
                                       const std::vector<ServedFrame>& served) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_fp;
  for (size_t i = 0; i < served.size(); ++i) {
    by_fp[served[i].fingerprint].push_back(i);
  }
  for (auto& [fp, v] : by_fp) {
    std::sort(v.begin(), v.end(), [&](size_t a, size_t b) {
      return served[a].start_ns < served[b].start_ns;
    });
  }
  std::vector<bool> used(served.size(), false);
  std::vector<size_t> order(requests.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return requests[a].send_ns < requests[b].send_ns;
  });
  std::vector<int64_t> match(requests.size(), -1);
  for (size_t i : order) {
    const ClientRecord& r = requests[i];
    auto it = by_fp.find(r.fingerprint);
    if (it == by_fp.end()) continue;
    for (size_t s : it->second) {
      if (used[s]) continue;
      if (served[s].start_ns < r.send_ns) continue;
      if (served[s].start_ns > r.recv_ns) break;
      if (served[s].end_ns > r.recv_ns) continue;
      used[s] = true;
      match[i] = static_cast<int64_t>(s);
      trace.set_parent(served[s].span_id, r.span_id, r.request);
      for (uint64_t c : served[s].children) {
        trace.set_parent(c, served[s].span_id, r.request);
      }
      break;
    }
  }
  std::vector<MatchedFrame> out;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (match[i] < 0) continue;
    const ServedFrame& f = served[static_cast<size_t>(match[i])];
    const double serve_us = static_cast<double>(f.end_ns - f.start_ns) / 1e3;
    const double rtt_us =
        static_cast<double>(requests[i].recv_ns - requests[i].send_ns) / 1e3;
    out.push_back(MatchedFrame{i, &f, serve_us, rtt_us - serve_us});
  }
  return out;
}

uint64_t registry_counter(const std::string& name) {
  droplens::obs::Registry* r = droplens::obs::installed();
  return r ? r->counter(name).value() : 0;
}

// --- report ------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string kernel() {
  utsname u{};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

/// Lines of src/ per module (top-level directory), counted in the checkout
/// the benchmark runs from.
std::map<std::string, size_t> src_lines() {
  namespace fs = std::filesystem;
  std::map<std::string, size_t> out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it("src", ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const fs::path rel = fs::relative(it->path(), "src");
    const std::string module = rel.begin()->string();
    std::ifstream in(it->path());
    size_t n = 0;
    for (std::string line; std::getline(in, line);) ++n;
    out[module] += n;
  }
  return out;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16s %-6s n=%zu%s%s\n", m.name.c_str(),
              format_value(m.value).c_str(), m.unit.c_str(), m.samples,
              m.note.empty() ? "" : "  ", m.note.c_str());
}

}  // namespace

void print_report(const Options& opt, const Result& r) {
  std::printf("droplens benchmark: workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("machine: cpu=\"%s\" nproc=%u kernel=\"%s\" build=%s\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              kernel().c_str(), PERFBENCH_BUILD_TYPE);
  std::string lines;
  size_t total = 0;
  for (const auto& [module, n] : src_lines()) {
    lines += " " + module + "=" + std::to_string(n);
    total += n;
  }
  std::printf("src lines: total=%zu%s\n", total, lines.c_str());
  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
  std::printf("frames: attempted=%llu failed=%llu (error=%llu shed=%llu "
              "timeout=%llu refused=%llu) failed_ratio=%s\n",
              static_cast<unsigned long long>(r.failures.attempted),
              static_cast<unsigned long long>(r.failures.failed()),
              static_cast<unsigned long long>(r.failures.error),
              static_cast<unsigned long long>(r.failures.shed),
              static_cast<unsigned long long>(r.failures.timeout),
              static_cast<unsigned long long>(r.failures.refused),
              format_value(r.failures.ratio()).c_str());
  if (!opt.trace) {
    std::printf("end-to-end (gated):\n");
    for (const Metric& m : r.e2e) print_metric(m);
    std::printf("end-to-end (this workload only, not gated):\n");
    for (const Metric& m : r.extra) print_metric(m);
  } else {
    std::printf("per-layer:\n");
    for (const Metric& m : r.layers) print_metric(m);
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, r.failures.attempted));
  json += ", \"failed\": " + std::to_string(r.failures.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : opt.trace ? r.layers : r.e2e) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + format_value(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
