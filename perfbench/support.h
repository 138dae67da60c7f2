// Helpers of the warehouse-day benchmark that are tested on their own
// (support_test.cc): the percentile rule, in-memory span tracing with
// self-time derivation, and the reference model of the DailySales view.
#ifndef OPENWVM_PERFBENCH_SUPPORT_H_
#define OPENWVM_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/value.h"
#include "warehouse/view_maintenance.h"

namespace perfbench {

// --- Percentile rule ---------------------------------------------------------

// A percentile is reported only when at least this many samples lie beyond
// it, so a p90 needs >= 100 samples and a p50 >= 20.
inline constexpr size_t kTailSamples = 10;

// Nearest-rank percentile (q in (0, 1)) of `samples`, or nullopt when fewer
// than kTailSamples samples lie above the selected rank.
std::optional<double> Percentile(std::vector<double> samples, double q);

// The highest percentile (as a fraction, truncated to 0.001) that still has
// kTailSamples samples beyond it, or nullopt when n <= kTailSamples.
std::optional<double> HighestSupportedPercentile(size_t n);

// --- Spans -------------------------------------------------------------------

// One timed call at a layer boundary. `parent` indexes the enclosing span
// in the same Tracer (-1 for a root); spans of one request share
// `trace_id`.
struct Span {
  const char* name = "";
  uint64_t trace_id = 0;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Records spans in memory from one thread. A span opened while another is
// open becomes its child. Disabled tracers record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t trace_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  // Writes every span as one JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// --- Reference model of the DailySales view ----------------------------------

// One group of the summary view: SUM(amount) and the hidden support count.
// A group with support 0 is absent from the view.
struct GroupAgg {
  int64_t total = 0;
  int64_t support = 0;
};

// Per-state rollup row: SUM(total_sales) and COUNT(*) over live groups.
struct StateAgg {
  int64_t total = 0;
  int64_t groups = 0;
  bool operator==(const StateAgg&) const = default;
};

// An independent model of the view (dims -> sum/support, retractions
// included) that answers the benchmark's three queries as of any of the
// last few committed version numbers. Older versions are reconstructed
// from per-commit undo records, so a check costs time proportional to the
// keys recent commits touched, not to the view.
class ViewModel {
 public:
  // Dimension order of the DailySales view: city, state, product_line,
  // date. `vn` is the version of the empty view.
  explicit ViewModel(int64_t vn = 0) : vn_(vn) {}

  // Folds a delta batch into the open (uncommitted) transaction.
  void Stage(const wvm::warehouse::DeltaBatch& batch);

  // Publishes the staged transaction as version `vn` (strictly increasing).
  // Returns false if a group's support would go negative.
  bool Commit(int64_t vn);

  size_t live_groups() const { return live_groups_; }

  // Answers as of version `vn`, which must be the current version or one
  // of the kRetainedVersions before it.
  std::optional<GroupAgg> Get(const wvm::Row& dims, int64_t vn) const;
  std::map<std::string, StateAgg> Rollup(int64_t vn) const;
  // product_line -> SUM(total_sales) over the city's live groups.
  std::map<std::string, int64_t> Slice(const std::string& city,
                                       int64_t vn) const;

  static constexpr size_t kRetainedVersions = 2;

 private:
  using GroupMap =
      std::unordered_map<wvm::Row, GroupAgg, wvm::RowHash, wvm::RowEq>;
  struct Undo {
    int64_t vn = 0;      // the commit this record undoes
    GroupMap before;     // touched keys' values before that commit
  };

  void CheckReachable(int64_t vn) const;
  // Keys whose value differs at `vn` from the current one, with their value
  // at `vn`.
  GroupMap Overlay(int64_t vn) const;
  GroupAgg Current(const wvm::Row& dims) const;
  void Account(const wvm::Row& dims, const GroupAgg& agg, int sign);

  int64_t vn_ = 0;
  GroupMap current_;
  GroupMap staged_;  // per-key deltas of the open transaction
  std::deque<Undo> undo_;
  size_t live_groups_ = 0;
  std::map<std::string, StateAgg> by_state_;
  // city -> product_line -> (sum, live groups)
  std::map<std::string, std::map<std::string, StateAgg>> by_city_line_;
};

}  // namespace perfbench

#endif  // OPENWVM_PERFBENCH_SUPPORT_H_
