// Span recording for the traced run. Spans are recorded by the benchmark's
// own code around calls into each layer's public functions, kept in memory,
// and written out as JSON lines when the run ends. Each span has a name, a
// start and end on the steady clock, a parent, and the id of the request it
// belongs to; all spans of one request share that id.
//
// Some children are replays of the same input through a layer's public
// function after the load phase (the program's internals cannot be reached
// live without changing it); they are parented by id, not by time.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration() const { return end_ns - start_ns; }
};

/// Thread-safe span sink. Ids start at 1, so 0 can mean "no parent".
class Trace {
 public:
  uint64_t add(uint64_t parent, uint64_t request, std::string name,
               int64_t start_ns, int64_t end_ns);
  /// Re-parent a span recorded before its parent was known (a server-side
  /// span matched to its client request after the load phase).
  void set_parent(uint64_t id, uint64_t parent, uint64_t request);
  /// Time a span recorded before its call ran.
  void set_times(uint64_t id, int64_t start_ns, int64_t end_ns);

  std::vector<Span> spans() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-request check that named layer spans explain the span they sit under.
struct AddUp {
  size_t requests = 0;
  size_t within = 0;         // requests whose remainder is within the tolerance
  double sum_parent_ns = 0;  // summed durations of the explained spans
  double sum_layers_ns = 0;  // summed durations of their layer children
  double sum_above_ns = 0;   // summed durations of the explained spans' parents
  double worst = 0;          // largest per-request |remainder|

  /// The share of the explained spans' time no layer span covers; negative
  /// when the layers take longer than the span they explain.
  double remainder() const {
    return sum_parent_ns > 0 ? (sum_parent_ns - sum_layers_ns) / sum_parent_ns
                             : 0;
  }
  double within_ratio() const {
    return requests ? static_cast<double>(within) /
                          static_cast<double>(requests)
                    : 0.0;
  }
  /// How much longer the spans above took than the explained spans: for a
  /// replayed serve under the live one, the live serve's cost of running
  /// under load with cold caches.
  double above_ratio() const {
    return sum_parent_ns > 0 ? sum_above_ns / sum_parent_ns : 0;
  }
};

/// For each span named `parent` (one per request): sum the durations of its
/// direct children whose names are in `layers`, unclamped, and compare with
/// the parent's duration. A request is within tolerance when
/// |parent - layers| <= tol * parent. A layer that is missing or timed short
/// leaves its time uncovered and shows in the remainder. The explained span's
/// own parent, if any, is summed into sum_above_ns.
AddUp check_add_up(const std::vector<Span>& spans, const std::string& parent,
                   const std::vector<std::string>& layers, double tol);

/// Write one JSON object per span to `path`.
bool write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
