// The benchmark's own span recorder. Every call the benchmark makes into a
// simulator layer (universe build, run_until slices, peer joins and
// departures, oracle and probe evaluations, the state digest) goes
// through `span_log::timed`, which always measures the call's wall time
// and the part of it covered by nested calls (the end-to-end numbers
// need both), and — in a traced run only — also keeps a span record:
// name, start, end and parent. Records live in memory and are written as
// a Chrome/Perfetto trace file when the run ends. The simulator's own
// obs::start_trace is never turned on.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// One recorded call into a layer.
struct span {
  std::uint32_t name = 0;   ///< index into span_log::names()
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 at the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  ///< time covered by direct children

  [[nodiscard]] std::int64_t duration_ns() const noexcept {
    return end_ns - start_ns;
  }
  [[nodiscard]] std::int64_t self_ns() const noexcept {
    return duration_ns() - child_ns;
  }
};

/// Wall time of one timed call.
struct timing {
  double wall_s = 0.0;  ///< whole call
  double self_s = 0.0;  ///< minus the nested timed calls it made
};

class span_log {
 public:
  explicit span_log(bool record) : record_(record) {}

  span_log(const span_log&) = delete;
  span_log& operator=(const span_log&) = delete;

  /// Runs `fn` as one call into the layer `name`.
  template <typename F>
  timing timed(std::string_view name, F&& fn) {
    open(name);
    std::forward<F>(fn)();
    return close();
  }

  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Durations (ms) of every recorded span called `name`, in call order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Summed self time (s) of every recorded span called `name`.
  [[nodiscard]] double self_total_s(std::string_view name) const;
  /// Summed duration (s) of every span whose name starts with `prefix`
  /// and whose parent does not (so nested matches are not counted twice).
  [[nodiscard]] double outermost_total_s(std::string_view prefix) const;

  /// Writes the recorded spans as Chrome/Perfetto trace JSON ("X" events
  /// carrying their span id and parent id). Returns false on I/O failure.
  bool write_trace(const std::string& path) const;

 private:
  struct frame {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t index = -1;  ///< recorded span, -1 when not recording
  };

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] std::uint32_t intern(std::string_view name);
  void open(std::string_view name);
  timing close();

  bool record_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<frame> stack_;
  std::vector<span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

}  // namespace perfbench
