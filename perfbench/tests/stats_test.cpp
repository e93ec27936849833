// Tests of the benchmark's statistics code (src/stats.cpp) and its traced
// add-up check (src/trace.cpp). Run with
//   python3 perfbench/run.py --self-test
// or the built perfbench_stats_test binary; exits non-zero on a failure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is the 990th, with exactly ten beyond it.
  Tail t = tail_percentile(one_to(1000));
  CHECK(near(t.percentile, 0.99));
  CHECK(near(t.value, 990));
  CHECK(t.beyond == 10);
  // 999 samples leave only nine beyond p99: report p90 instead.
  t = tail_percentile(one_to(999));
  CHECK(near(t.percentile, 0.9));
  CHECK(near(t.value, 900));
  CHECK(t.beyond == 99);
  // The cap: 100000 samples could support p99.99, a _p99 metric stops at
  // p99, and a p99.9 cap reports p99.9.
  t = tail_percentile(one_to(100000));
  CHECK(near(t.percentile, 0.99));
  CHECK(near(t.value, 99000));
  t = tail_percentile(one_to(100000), 0.999);
  CHECK(near(t.percentile, 0.999));
  CHECK(t.beyond == 100);
  t = tail_percentile(one_to(100000), 1.0);
  CHECK(near(t.percentile, 0.9999));
  CHECK(t.beyond == 10);
  // Too few samples for any tail: the median, flagged by beyond < 10.
  t = tail_percentile(one_to(15));
  CHECK(near(t.percentile, 0.5));
  CHECK(t.beyond < 10);
  CHECK(near(quantile_sorted(one_to(4), 0.5), 2));
  CHECK(near(quantile_sorted({}, 0.5), 0));
}

void sliced_tail_rule() {
  // 10 slices of 1000; one slice holds a burst of stalls. The burst owns
  // that slice's p99 but not the median of the ten.
  std::vector<double> v;
  for (int s = 0; s < 10; ++s) {
    for (int i = 1; i <= 1000; ++i) {
      v.push_back(s == 3 && i % 5 == 0 ? 1e6 : static_cast<double>(i));
    }
  }
  const Tail sliced = sliced_tail(v);
  CHECK(near(sliced.value, 990));
  CHECK(tail_percentile([&] {
          std::vector<double> sorted = v;
          std::sort(sorted.begin(), sorted.end());
          return sorted;
        }()).value > 1e5);
  // Under two slices' worth of samples it is the plain tail.
  std::vector<double> few = one_to(1500);
  CHECK(near(sliced_tail(few).value, tail_percentile(few).value));
  const Summary s = summarize(v);
  CHECK(s.n == 10000);
  CHECK(near(s.tail.value, 990));
  CHECK(s.run_tail.value > 1e5);
}

void open_loop_from_due_time() {
  // Requests due every 100 us. The third stalls the connection for 1 ms, so
  // the fourth is sent 900 us late: its latency counts from its due time,
  // not from when it was finally sent.
  std::vector<OpenLoopSample> s = {
      {0, 5'000, 50'000},
      {100'000, 105'000, 150'000},
      {200'000, 205'000, 1'200'000},
      {300'000, 1'200'000, 1'250'000},
  };
  const OpenLoopSummary sum = summarize_open_loop(s);
  CHECK(sum.latency_us.n == 4);
  CHECK(near(sum.latency_us.max, 1000));   // the stalled request
  CHECK(near(sum.lateness_us.max, 900));   // the one sent late
  // Median latency: sorted {50, 50, 950, 1000} -> nearest rank 2 -> 50.
  CHECK(near(sum.latency_us.p50, 50));
  // Round trips from the send hide the stall's effect on the fourth
  // request: {45, 45, 995, 50}.
  CHECK(near(sum.round_trip_us.p50, 45));
  CHECK(near(sum.round_trip_us.max, 995));
  // Lateness is never negative (an early send counts as on time).
  const OpenLoopSummary early = summarize_open_loop({{1000, 900, 2000}});
  CHECK(near(early.lateness_us.max, 0));
  // Input order does not matter: samples are taken in due-time order.
  std::vector<OpenLoopSample> shuffled = {s[3], s[0], s[2], s[1]};
  CHECK(near(summarize_open_loop(shuffled).latency_us.p50, 50));
}

void backlog_detection() {
  std::vector<OpenLoopSample> flat, growing, noisy;
  for (int i = 0; i < 3000; ++i) {
    const int64_t due = i * 1000;
    flat.push_back({due, due, due + 80'000});
    // A server that falls 1 us further behind per request.
    growing.push_back({due, due, due + 80'000 + i * 1000});
    noisy.push_back({due, due, due + 80'000 + (i % 7) * 30'000});
  }
  CHECK(!backlog_grows(flat, 1000));
  CHECK(backlog_grows(growing, 1000));
  CHECK(!backlog_grows(noisy, 1000));
  CHECK(!backlog_grows({}, 1000));

  LadderStep ok{1000, summarize(std::vector<double>(2000, 100.0)), false, 0};
  LadderStep slow{4000, summarize(std::vector<double>(2000, 5000.0)), false, 0};
  LadderStep backlog = ok;
  backlog.rate = 4000;
  backlog.backlog_growing = true;
  LadderStep failing = ok;
  failing.rate = 4000;
  failing.failed = 1;
  CHECK(step_meets(ok, 1000));
  CHECK(!step_meets(slow, 1000));
  CHECK(!step_meets(backlog, 1000));
  CHECK(!step_meets(failing, 1000));
  CHECK(near(highest_passing_rate({ok, slow}, 1000), 1000));
  CHECK(near(highest_passing_rate({ok, backlog}, 1000), 1000));
  CHECK(near(highest_passing_rate({slow, ok}, 1000), 0));  // stops at first miss
  LadderStep ok2 = ok;
  ok2.rate = 4000;
  CHECK(near(highest_passing_rate({ok, ok2}, 1000), 4000));
}

void failure_counting() {
  CHECK(classify_failure("svc server error: overloaded: request shed") ==
        Outcome::kShed);
  CHECK(classify_failure("svc server error: overloaded: connection limit") ==
        Outcome::kRefused);
  CHECK(classify_failure("svc server error: deadline exceeded") ==
        Outcome::kTimeout);
  CHECK(classify_failure("svc transport: connect: Connection refused") ==
        Outcome::kRefused);
  CHECK(classify_failure("svc transport: connection closed mid-response") ==
        Outcome::kError);
  CHECK(classify_failure("svc server error: malformed frame") == Outcome::kError);

  Failures f;
  for (int i = 0; i < 6; ++i) f.count(Outcome::kOk);
  f.count(Outcome::kShed);
  f.count(Outcome::kTimeout);
  f.count(Outcome::kRefused);
  f.count(Outcome::kError);
  CHECK(f.attempted == 10);
  CHECK(f.failed() == 4);
  CHECK(near(f.ratio(), 0.4));
  Failures g;
  g.count(Outcome::kOk);
  g.count(Outcome::kShed);
  f.merge(g);
  CHECK(f.attempted == 12);
  CHECK(f.shed == 2);
  CHECK(near(Failures{}.ratio(), 0));
}

void median_rate_rule() {
  // Readings each second for 10 s: 200 units of work per second, except
  // that the machine stalls through the fourth second.
  std::vector<double> work = {0}, time = {0};
  for (int sec = 1; sec <= 10; ++sec) {
    work.push_back(work.back() + (sec == 4 ? 0 : 200));
    time.push_back(sec);
  }
  CHECK(near(median_rate(work, time), 200));
  // The stalled stretch would pull a whole-run rate down to 180.
  CHECK(near(work.back() / time.back(), 180));
  // Against CPU time the stall, which used none, is a stretch with no time:
  // left out rather than counted as infinitely fast.
  std::vector<double> cpu = {0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9};
  CHECK(near(median_rate(work, cpu), 200));
  CHECK(near(median_rate({5}, {1}), 0));
}

void add_up_rule() {
  // Two served frames of 1000 ns. The first is explained by its layers
  // (decode 100 + answer 800 + encode 90, with a store span under answer
  // that must not count twice); the second lacks its answer span, so 800 ns
  // are uncovered.
  Trace t;
  const uint64_t a = t.add(0, 1, "serve", 0, 1000);
  t.add(a, 1, "decode", 0, 100);
  const uint64_t answer = t.add(a, 1, "answer", 100, 900);
  t.add(answer, 1, "store", 100, 150);
  t.add(a, 1, "encode", 900, 990);
  const uint64_t b = t.add(0, 2, "serve", 2000, 3000);
  t.add(b, 2, "decode", 2000, 2100);
  t.add(b, 2, "encode", 2900, 3000);
  const std::vector<std::string> layers = {"decode", "answer", "encode"};
  const AddUp r = check_add_up(t.spans(), "serve", layers, 0.05);
  CHECK(r.requests == 2);
  CHECK(r.within == 1);
  CHECK(near(r.sum_parent_ns, 2000));
  CHECK(near(r.sum_layers_ns, 990 + 200));
  CHECK(near(r.remainder(), 810.0 / 2000));
  CHECK(near(r.worst, 0.8));
  // Layers that outlast their parent are not clamped away.
  Trace over;
  const uint64_t p = over.add(0, 1, "ingest", 0, 1000);
  over.add(p, 1, "apply", 0, 1500);
  const AddUp o = check_add_up(over.spans(), "ingest", {"apply"}, 0.1);
  CHECK(near(o.remainder(), -0.5));
  CHECK(o.within == 0);
  CHECK(near(check_add_up({}, "serve", layers, 0.1).within_ratio(), 0));
}

}  // namespace

int main() {
  percentile_rule();
  sliced_tail_rule();
  open_loop_from_due_time();
  backlog_detection();
  failure_counting();
  median_rate_rule();
  add_up_rule();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("stats tests passed\n");
  return 0;
}
