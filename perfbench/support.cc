#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // The epsilon keeps q * n from rounding up past an exact rank
  // (0.9 * 100 must select rank 90, not 91).
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) -
                                              1e-9));
  rank = std::max<size_t>(rank, 1);
  if (n - rank < kTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> HighestSupportedPercentile(size_t n) {
  if (n <= kTailSamples) return std::nullopt;
  const double q = static_cast<double>(n - kTailSamples) /
                   static_cast<double>(n);
  return std::floor(q * 1000.0) / 1000.0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t trace_id)
    : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.trace_id = trace_id;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"trace\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.trace_id),
                 s.parent, static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = lo;  // end of the union covered so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

void ViewModel::Stage(const wvm::warehouse::DeltaBatch& batch) {
  for (const wvm::warehouse::BaseEvent& e : batch) {
    GroupAgg& d = staged_[e.dims];
    const int64_t sign = e.retraction ? -1 : 1;
    d.total += sign * e.amount;
    d.support += sign;
  }
}

GroupAgg ViewModel::Current(const wvm::Row& dims) const {
  auto it = current_.find(dims);
  return it == current_.end() ? GroupAgg{} : it->second;
}

void ViewModel::Account(const wvm::Row& dims, const GroupAgg& agg,
                        int sign) {
  if (agg.support == 0) return;
  live_groups_ += sign;
  StateAgg& s = by_state_[dims[1].AsString()];
  s.total += sign * agg.total;
  s.groups += sign;
  StateAgg& c = by_city_line_[dims[0].AsString()][dims[2].AsString()];
  c.total += sign * agg.total;
  c.groups += sign;
}

bool ViewModel::Commit(int64_t vn) {
  WVM_CHECK(vn > vn_);
  Undo undo;
  undo.vn = vn;
  for (const auto& [dims, delta] : staged_) {
    if (delta.total == 0 && delta.support == 0) continue;
    const GroupAgg before = Current(dims);
    const GroupAgg after{before.total + delta.total,
                         before.support + delta.support};
    if (after.support < 0) return false;
    undo.before.emplace(dims, before);
    Account(dims, before, -1);
    Account(dims, after, +1);
    if (after.support == 0) {
      current_.erase(dims);
    } else {
      current_[dims] = after;
    }
  }
  staged_.clear();
  undo_.push_front(std::move(undo));
  if (undo_.size() > kRetainedVersions) undo_.pop_back();
  vn_ = vn;
  return true;
}

void ViewModel::CheckReachable(int64_t vn) const {
  WVM_CHECK_MSG(vn <= vn_, "model asked about an uncommitted version");
  // Versions are consecutive, so the oldest reachable one sits just below
  // the oldest retained undo record.
  WVM_CHECK_MSG(undo_.empty() ? vn == vn_ : vn >= undo_.back().vn - 1,
                "model asked about a version it no longer retains");
}

ViewModel::GroupMap ViewModel::Overlay(int64_t vn) const {
  CheckReachable(vn);
  GroupMap out;
  for (const Undo& u : undo_) {  // newest first; older records overwrite
    if (u.vn <= vn) break;
    for (const auto& [dims, before] : u.before) out[dims] = before;
  }
  return out;
}

std::optional<GroupAgg> ViewModel::Get(const wvm::Row& dims,
                                       int64_t vn) const {
  CheckReachable(vn);
  GroupAgg agg = Current(dims);
  for (const Undo& u : undo_) {
    if (u.vn <= vn) break;
    auto it = u.before.find(dims);
    if (it != u.before.end()) agg = it->second;
  }
  if (agg.support == 0) return std::nullopt;
  return agg;
}

std::map<std::string, StateAgg> ViewModel::Rollup(int64_t vn) const {
  std::map<std::string, StateAgg> out = by_state_;
  for (const auto& [dims, then] : Overlay(vn)) {
    const GroupAgg now = Current(dims);
    StateAgg& s = out[dims[1].AsString()];
    if (now.support != 0) {
      s.total -= now.total;
      s.groups -= 1;
    }
    if (then.support != 0) {
      s.total += then.total;
      s.groups += 1;
    }
  }
  std::erase_if(out, [](const auto& kv) { return kv.second.groups == 0; });
  return out;
}

std::map<std::string, int64_t> ViewModel::Slice(const std::string& city,
                                                int64_t vn) const {
  std::map<std::string, StateAgg> lines;
  if (auto it = by_city_line_.find(city); it != by_city_line_.end()) {
    lines = it->second;
  }
  for (const auto& [dims, then] : Overlay(vn)) {
    if (dims[0].AsString() != city) continue;
    const GroupAgg now = Current(dims);
    StateAgg& s = lines[dims[2].AsString()];
    if (now.support != 0) {
      s.total -= now.total;
      s.groups -= 1;
    }
    if (then.support != 0) {
      s.total += then.total;
      s.groups += 1;
    }
  }
  std::map<std::string, int64_t> out;
  for (const auto& [line, agg] : lines) {
    if (agg.groups != 0) out[line] = agg.total;
  }
  return out;
}

}  // namespace perfbench
