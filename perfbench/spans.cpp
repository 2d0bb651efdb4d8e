#include "spans.h"

#include <fstream>

namespace perfbench {

std::uint32_t span_log::intern(std::string_view name) {
  const auto [it, inserted] = name_ids_.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

void span_log::open(std::string_view name) {
  frame f;
  if (record_) {
    span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? -1 : stack_.back().index;
    f.index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(s);
  }
  f.start_ns = now_ns();
  stack_.push_back(f);
}

timing span_log::close() {
  const std::int64_t end = now_ns();
  const frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t wall = end - f.start_ns;
  if (!stack_.empty()) stack_.back().child_ns += wall;
  if (f.index >= 0) {
    span& s = spans_[static_cast<std::size_t>(f.index)];
    s.start_ns = f.start_ns;
    s.end_ns = end;
    s.child_ns = f.child_ns;
  }
  return timing{static_cast<double>(wall) * 1e-9,
                static_cast<double>(wall - f.child_ns) * 1e-9};
}

std::vector<double> span_log::durations_ms(std::string_view name) const {
  std::vector<double> out;
  const auto it = name_ids_.find(std::string(name));
  if (it == name_ids_.end()) return out;
  for (const span& s : spans_) {
    if (s.name == it->second) {
      out.push_back(static_cast<double>(s.duration_ns()) * 1e-6);
    }
  }
  return out;
}

double span_log::self_total_s(std::string_view name) const {
  const auto it = name_ids_.find(std::string(name));
  if (it == name_ids_.end()) return 0.0;
  std::int64_t total = 0;
  for (const span& s : spans_) {
    if (s.name == it->second) total += s.self_ns();
  }
  return static_cast<double>(total) * 1e-9;
}

double span_log::outermost_total_s(std::string_view prefix) const {
  const auto matches = [&](std::int32_t index) {
    return index >= 0 &&
           names_[spans_[static_cast<std::size_t>(index)].name].starts_with(
               prefix);
  };
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (matches(static_cast<std::int32_t>(i)) && !matches(spans_[i].parent)) {
      total += spans_[i].duration_ns();
    }
  }
  return static_cast<double>(total) * 1e-9;
}

bool span_log::write_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << names_[s.name]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.duration_ns()) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
