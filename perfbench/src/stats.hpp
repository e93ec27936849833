// The benchmark's statistics: percentiles by the ten-samples rule, open-loop
// latency and generator lateness, backlog-growth detection on the rate
// ladder, and failure counting. Pure functions over recorded samples, so
// tests/stats_test.cpp can pin each rule on synthetic data.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of ascending `sorted` (q in (0, 1]); 0 when empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// A tail percentile: which one was reported and how many samples lie beyond
/// it.
struct Tail {
  double percentile = 0;  // e.g. 0.99
  double value = 0;
  size_t beyond = 0;
};

/// The highest of 99.99, 99.9, 99, 90 and 50, at most `cap`, that has at
/// least ten samples beyond it. Fewer than 20 samples fall back to the
/// median (`beyond` < 10 then says so). A metric named for its percentile
/// (frame_p99_us) passes that percentile as the cap.
Tail tail_percentile(const std::vector<double>& sorted, double cap = 0.99);

/// The median of slice medians, slicing as sliced_tail does.
double sliced_median(const std::vector<double>& in_time_order,
                     size_t min_slice = 1000, size_t max_slices = 10);

struct Summary {
  size_t n = 0;
  double p50 = 0;      // sliced_median: the reported median
  double run_p50 = 0;  // median of the whole run, for reference
  Tail tail;      // sliced_tail: the reported tail
  Tail run_tail;  // tail_percentile of the whole run, for reference
  double max = 0;
};

/// Sliced median and tail, and whole-run median and tail, of samples given
/// in time order.
Summary summarize(const std::vector<double>& in_time_order,
                  double tail_cap = 0.99);

/// The tail of a run too long for one transient stall of the machine to own:
/// `in_time_order` is cut into consecutive slices of equal count (as many as
/// fit at `min_slice` samples each, at most `max_slices`), each slice's tail
/// is taken by tail_percentile, and the median of those is reported. With
/// fewer than 2 * min_slice samples it is the plain tail of the whole run.
Tail sliced_tail(const std::vector<double>& in_time_order, double cap = 0.99,
                 size_t min_slice = 1000, size_t max_slices = 10);

/// A closed loop's rate as the median over its stretches, so a stall of the
/// machine in one stretch does not move it. `work` and `time` are readings
/// taken together at each stretch boundary: work done so far, and the clock
/// the rate is measured against (wall or CPU seconds). Each stretch's rate
/// is its work over its time; stretches with no time are left out. 0 with
/// fewer than two readings.
double median_rate(const std::vector<double>& work,
                   const std::vector<double>& time);

/// "p99" for 0.99, "p99.9" for 0.999, ...
std::string percentile_label(double p);

/// How a summary's tail was taken, e.g. "p99, median of 10 slices;
/// whole run p99 = 812.5".
std::string describe_tail(const Summary& s);

/// How a summary's median was taken, e.g. "median of 10 slices; whole run
/// p50 = 96.2".
std::string describe_median(const Summary& s);

/// One open-loop request: when it was due by the schedule, when the
/// generator actually sent it, and when its reply arrived (steady-clock ns).
struct OpenLoopSample {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

struct OpenLoopSummary {
  Summary latency_us;     // done - due: counts the wait a stall imposes
  Summary lateness_us;    // sent - due: how late the generator ran
  Summary round_trip_us;  // done - sent
};

/// Summaries over the samples in due-time order.
OpenLoopSummary summarize_open_loop(std::vector<OpenLoopSample> s);

/// True when the backlog grows over a ladder step: the median latency (from
/// the due time) of the last third of the step, by due time, exceeds that of
/// the first third by more than `slack_us`. A server that keeps up has flat
/// latency across the step; one that falls behind serves each request later
/// than the one before.
bool backlog_grows(std::vector<OpenLoopSample> samples, double slack_us);

/// A rate-ladder step passes when its tail latency meets the limit and its
/// backlog does not grow; every failed frame counts as missing the limit.
struct LadderStep {
  double rate = 0;  // frames per second offered
  Summary latency_us;
  bool backlog_growing = false;
  uint64_t failed = 0;
};
bool step_meets(const LadderStep& step, double limit_us);

/// The highest offered rate whose step meets the limit, scanning the ladder
/// bottom up and stopping at the first step that does not; 0 if none.
double highest_passing_rate(const std::vector<LadderStep>& ladder,
                            double limit_us);

/// How one frame ended. Wrong answers are not an outcome: they abort.
enum class Outcome : uint8_t { kOk, kError, kShed, kTimeout, kRefused };

/// Classify a client-side failure by the server's typed error text (the
/// svc::Server overload / deadline replies) or a transport failure.
Outcome classify_failure(std::string_view message);

struct Failures {
  uint64_t attempted = 0;
  uint64_t error = 0;
  uint64_t shed = 0;
  uint64_t timeout = 0;
  uint64_t refused = 0;

  void count(Outcome o);
  void merge(const Failures& other);
  uint64_t failed() const { return error + shed + timeout + refused; }
  double ratio() const {
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

}  // namespace perfbench
