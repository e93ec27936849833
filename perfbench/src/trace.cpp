#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <unordered_map>

namespace perfbench {

uint64_t Trace::add(uint64_t parent, uint64_t request, std::string name,
                    int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, request, std::move(name), start_ns, end_ns});
  return id;
}

void Trace::set_parent(uint64_t id, uint64_t parent, uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(id - 1);
  s.parent = parent;
  s.request = request;
}

void Trace::set_times(uint64_t id, int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_.at(id - 1);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
}

std::vector<Span> Trace::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

AddUp check_add_up(const std::vector<Span>& spans, const std::string& parent,
                   const std::vector<std::string>& layers, double tol) {
  const std::set<std::string> names(layers.begin(), layers.end());
  std::unordered_map<uint64_t, int64_t> covered;  // parent id -> layer sum
  std::unordered_map<uint64_t, int64_t> duration;
  for (const Span& s : spans) {
    if (s.parent != 0 && names.count(s.name)) covered[s.parent] += s.duration();
    duration[s.id] = s.duration();
  }
  AddUp r;
  for (const Span& s : spans) {
    if (s.name != parent) continue;
    const double total = static_cast<double>(s.duration());
    const double layer = static_cast<double>(covered[s.id]);
    ++r.requests;
    r.sum_parent_ns += total;
    r.sum_layers_ns += layer;
    if (auto above = duration.find(s.parent); above != duration.end()) {
      r.sum_above_ns += static_cast<double>(above->second);
    }
    const double err = total > 0 ? std::fabs(total - layer) / total : 0;
    r.worst = std::max(r.worst, err);
    if (err <= tol) ++r.within;
  }
  return r;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
