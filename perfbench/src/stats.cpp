#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail tail_percentile(const std::vector<double>& sorted, double cap) {
  static constexpr double kCandidates[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  const double n = static_cast<double>(sorted.size());
  Tail t;
  for (double p : kCandidates) {
    if (p > cap + 1e-12) continue;
    size_t rank = std::clamp<size_t>(
        static_cast<size_t>(std::ceil(p * n - 1e-9)), 1,
        std::max<size_t>(sorted.size(), 1));
    size_t beyond = sorted.size() >= rank ? sorted.size() - rank : 0;
    t = Tail{p, quantile_sorted(sorted, p), beyond};
    if (beyond >= 10) return t;
  }
  return t;  // the median, with fewer than ten beyond it
}

Summary summarize(const std::vector<double>& in_time_order, double tail_cap) {
  std::vector<double> sorted = in_time_order;
  std::sort(sorted.begin(), sorted.end());
  Summary s;
  s.n = sorted.size();
  if (sorted.empty()) return s;
  s.p50 = sliced_median(in_time_order);
  s.run_p50 = quantile_sorted(sorted, 0.5);
  s.tail = sliced_tail(in_time_order, tail_cap);
  s.run_tail = tail_percentile(sorted, tail_cap);
  s.max = sorted.back();
  return s;
}

double median_rate(const std::vector<double>& work,
                   const std::vector<double>& time) {
  std::vector<double> rates;
  for (size_t k = 1; k < work.size() && k < time.size(); ++k) {
    const double dt = time[k] - time[k - 1];
    if (dt > 0) rates.push_back((work[k] - work[k - 1]) / dt);
  }
  std::sort(rates.begin(), rates.end());
  return quantile_sorted(rates, 0.5);
}

namespace {

/// `in_time_order` cut into consecutive slices of equal count, each sorted:
/// as many as fit at `min_slice` samples each, at least 1, at most
/// `max_slices`.
std::vector<std::vector<double>> sorted_slices(
    const std::vector<double>& in_time_order, size_t min_slice,
    size_t max_slices) {
  const size_t n = in_time_order.size();
  const size_t count =
      std::clamp<size_t>(n / std::max<size_t>(min_slice, 1), 1, max_slices);
  std::vector<std::vector<double>> slices;
  for (size_t k = 0; k < count; ++k) {
    auto first = in_time_order.begin() + static_cast<ptrdiff_t>(n * k / count);
    auto last =
        in_time_order.begin() + static_cast<ptrdiff_t>(n * (k + 1) / count);
    slices.emplace_back(first, last);
    std::sort(slices.back().begin(), slices.back().end());
  }
  return slices;
}

}  // namespace

Tail sliced_tail(const std::vector<double>& in_time_order, double cap,
                 size_t min_slice, size_t max_slices) {
  std::vector<Tail> tails;
  for (const auto& slice : sorted_slices(in_time_order, min_slice, max_slices)) {
    tails.push_back(tail_percentile(slice, cap));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  // Lower median: an even count never averages two slices' tails.
  Tail t = tails[(tails.size() - 1) / 2];
  t.beyond = 0;
  for (const Tail& x : tails) t.beyond += x.beyond;
  return t;
}

double sliced_median(const std::vector<double>& in_time_order,
                     size_t min_slice, size_t max_slices) {
  if (in_time_order.empty()) return 0;
  std::vector<double> medians;
  for (const auto& slice : sorted_slices(in_time_order, min_slice, max_slices)) {
    medians.push_back(quantile_sorted(slice, 0.5));
  }
  std::sort(medians.begin(), medians.end());
  return medians[(medians.size() - 1) / 2];
}

std::string percentile_label(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p * 100.0);
  return buf;
}

std::string describe_tail(const Summary& s) {
  const size_t slices = std::clamp<size_t>(s.n / 1000, 1, 10);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s, median of %zu slices; whole run %s = %.6g",
                percentile_label(s.tail.percentile).c_str(), slices,
                percentile_label(s.run_tail.percentile).c_str(), s.run_tail.value);
  return buf;
}

std::string describe_median(const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "median of %zu slices; whole run p50 = %.6g",
                std::clamp<size_t>(s.n / 1000, 1, 10), s.run_p50);
  return buf;
}

OpenLoopSummary summarize_open_loop(std::vector<OpenLoopSample> s) {
  std::sort(s.begin(), s.end(),
            [](const OpenLoopSample& a, const OpenLoopSample& b) {
              return a.due_ns < b.due_ns;
            });
  std::vector<double> latency, lateness, round_trip;
  for (const OpenLoopSample& x : s) {
    latency.push_back(static_cast<double>(x.done_ns - x.due_ns) / 1e3);
    lateness.push_back(
        static_cast<double>(std::max<int64_t>(0, x.sent_ns - x.due_ns)) / 1e3);
    round_trip.push_back(static_cast<double>(x.done_ns - x.sent_ns) / 1e3);
  }
  return OpenLoopSummary{summarize(latency), summarize(lateness),
                         summarize(round_trip)};
}

bool backlog_grows(std::vector<OpenLoopSample> samples, double slack_us) {
  if (samples.size() < 3) return false;
  std::sort(samples.begin(), samples.end(),
            [](const OpenLoopSample& a, const OpenLoopSample& b) {
              return a.due_ns < b.due_ns;
            });
  const size_t third = samples.size() / 3;
  auto median_latency = [&](size_t begin, size_t end) {
    std::vector<double> v;
    v.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      v.push_back(static_cast<double>(samples[i].done_ns - samples[i].due_ns) /
                  1e3);
    }
    std::sort(v.begin(), v.end());
    return quantile_sorted(v, 0.5);
  };
  const double first = median_latency(0, third);
  const double last = median_latency(samples.size() - third, samples.size());
  return last - first > slack_us;
}

bool step_meets(const LadderStep& step, double limit_us) {
  return step.failed == 0 && !step.backlog_growing && step.latency_us.n > 0 &&
         step.latency_us.tail.value <= limit_us;
}

double highest_passing_rate(const std::vector<LadderStep>& ladder,
                            double limit_us) {
  double best = 0;
  for (const LadderStep& step : ladder) {
    if (!step_meets(step, limit_us)) break;
    best = step.rate;
  }
  return best;
}

Outcome classify_failure(std::string_view message) {
  if (message.find("overloaded: request shed") != std::string_view::npos) {
    return Outcome::kShed;
  }
  if (message.find("overloaded: connection limit") != std::string_view::npos) {
    return Outcome::kRefused;
  }
  if (message.find("deadline exceeded") != std::string_view::npos) {
    return Outcome::kTimeout;
  }
  if (message.find("connect") != std::string_view::npos &&
      message.find("connection closed") == std::string_view::npos) {
    return Outcome::kRefused;
  }
  return Outcome::kError;
}

void Failures::count(Outcome o) {
  ++attempted;
  switch (o) {
    case Outcome::kOk: break;
    case Outcome::kError: ++error; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kTimeout: ++timeout; break;
    case Outcome::kRefused: ++refused; break;
  }
}

void Failures::merge(const Failures& other) {
  attempted += other.attempted;
  error += other.error;
  shed += other.shed;
  timeout += other.timeout;
  refused += other.refused;
}

}  // namespace perfbench
