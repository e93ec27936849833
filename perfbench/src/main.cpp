// droplens benchmark: runs one workload pass and prints its metrics.
//
//   droplens_perfbench --workload <fulltable-query|window-mixed|live-follow>
//                      --seed N --seconds S --trace <0|1> [--work-dir DIR]
//
// Untraced (--trace 0), one pass prints the end-to-end metrics. Traced
// (--trace 1), an untraced pass and then a traced pass of the same inputs
// run back to back; the per-layer metrics come from the traced pass and
// trace.overhead.* is the traced pass's end-to-end numbers minus the
// untraced pass's. The last stdout line is one JSON object.
#include <sys/prctl.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: droplens_perfbench --workload <fulltable-query|"
               "window-mixed|live-follow> --seed N --seconds S --trace <0|1> "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();
  perfbench::Result (*run)(const perfbench::Options&, bool) = nullptr;
  if (opt.workload == "fulltable-query") run = perfbench::run_fulltable;
  if (opt.workload == "window-mixed") run = perfbench::run_window;
  if (opt.workload == "live-follow") run = perfbench::run_live;
  if (!run) return usage();

  // Open-loop generators sleep until each request is due; the default 50 us
  // timer slack would make every send that late. Threads inherit this.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  // Configured as droplensd is: a process-wide registry every instrument
  // binds to, and the flight recorder armed at its default sampling.
  droplens::obs::Registry registry;
  droplens::obs::ScopedRegistry scoped_registry(registry);
  droplens::obs::FlightRecorder recorder;
  droplens::obs::ScopedFlightRecorder scoped_recorder(recorder);

  perfbench::Result result;
  try {
    if (opt.trace) {
      const perfbench::Result untraced = run(opt, false);
      result = run(opt, true);
      result.failures.merge(untraced.failures);
      result.correct = result.correct && untraced.correct;
      perfbench::add_overhead(result, untraced);
      perfbench::complete_layers(result);
    } else {
      result = run(opt, false);
    }
  } catch (const perfbench::WrongAnswer& e) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", e.what());
    result.correct = false;
    result.notes.push_back(std::string("wrong answer: ") + e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
  perfbench::print_report(opt, result);
  return result.correct ? 0 : 1;
}
