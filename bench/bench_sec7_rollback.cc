// §7 rollback study: aborting a maintenance transaction by reverting to
// the in-tuple pre-update versions (no before-image logging) vs a
// conventional undo-log baseline, as a function of transaction size.
// Also shows the nVNL refinement: with n > 2 the revert is lossless and
// old sessions survive the abort.
#include <chrono>
#include <cstdio>
#include <vector>

#include "baselines/vnl_adapter.h"
#include "bench/apply_to_key.h"
#include "bench/bench_json.h"
#include "catalog/table.h"
#include "common/logging.h"
#include "common/strings.h"

namespace wvm {
namespace {

constexpr int kRows = 20000;

Schema ItemSchema() {
  return Schema({Column::Int64("id"), Column::Int64("qty", true)}, {0});
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Baseline: a plain table where the "transaction" records before-images
// into an undo log and abort replays the log backwards.
struct UndoLogResult {
  double update_ms;
  double abort_ms;
};
UndoLogResult UndoLogAbort(int txn_size) {
  DiskManager disk;
  BufferPool pool(16384, &disk);
  Table table("items", ItemSchema(), &pool);
  std::vector<Rid> rids;
  rids.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    Result<Rid> rid = table.InsertRow({Value::Int64(i), Value::Int64(i)});
    WVM_CHECK(rid.ok());
    rids.push_back(rid.value());
  }

  std::vector<std::pair<Rid, Row>> undo_log;
  undo_log.reserve(static_cast<size_t>(txn_size));
  const auto u0 = std::chrono::steady_clock::now();
  for (int i = 0; i < txn_size; ++i) {
    const Rid rid = rids[static_cast<size_t>(i) % rids.size()];
    Result<Row> before = table.GetRow(rid);
    WVM_CHECK(before.ok());
    undo_log.emplace_back(rid, before.value());  // before-image logging
    Row next = before.value();
    next[1] = Value::Int64(next[1].AsInt64() + 1);
    WVM_CHECK(table.UpdateRow(rid, next).ok());
  }
  const double update_ms = MsSince(u0);

  const auto a0 = std::chrono::steady_clock::now();
  for (auto it = undo_log.rbegin(); it != undo_log.rend(); ++it) {
    WVM_CHECK(table.UpdateRow(it->first, it->second).ok());
  }
  return {update_ms, MsSince(a0)};
}

struct VnlResult {
  double update_ms;
  double abort_ms;
  bool old_session_survived;
};
VnlResult VnlAbort(int n, int txn_size) {
  DiskManager disk;
  BufferPool pool(16384, &disk);
  auto adapter_or = baselines::VnlAdapter::Create(&pool, ItemSchema(), n);
  WVM_CHECK(adapter_or.ok());
  baselines::VnlAdapter& adapter = **adapter_or;
  core::VnlEngine* engine = adapter.engine();
  core::VnlTable* table = adapter.table();

  WVM_CHECK(adapter.BeginMaintenance().ok());
  for (int64_t i = 0; i < kRows; ++i) {
    WVM_CHECK(bench::ApplyToKey(&adapter, i,
                                core::NetEffect::Insert(
                                    {Value::Int64(i), Value::Int64(i)}))
                  .ok());
  }
  WVM_CHECK(adapter.CommitMaintenance().ok());

  // Touch the tuples once more in a committed txn so the abort below hits
  // the hard case (tuples whose slot 0 belonged to the previous txn).
  WVM_CHECK(adapter.BeginMaintenance().ok());
  for (int64_t i = 0; i < txn_size; ++i) {
    WVM_CHECK(bench::ApplyToKey(
                  &adapter, i % kRows,
                  core::NetEffect::Update({{1, Value::Int64(100)}}))
                  .ok());
  }
  WVM_CHECK(adapter.CommitMaintenance().ok());

  core::ReaderSession old_session = engine->OpenSession();
  WVM_CHECK(engine->Commit(engine->BeginMaintenance().value()).ok());

  Result<core::MaintenanceTxn*> txn = engine->BeginMaintenance();
  WVM_CHECK(txn.ok());
  // One key per ApplyBatch: the per-key step a keyed update runs.
  std::vector<core::BatchKeyOp> op = {
      {{Value::Int64(0)},
       [](const std::optional<Row>& row) -> Result<core::NetEffect> {
         if (!row.has_value()) return core::NetEffect{};
         return core::NetEffect::Update(
             {{1, Value::Int64((*row)[1].AsInt64() + 1)}});
       }}};
  const auto u0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < txn_size; ++i) {
    op[0].key[0] = Value::Int64(i % kRows);
    Result<core::BatchApplyStats> r = table->ApplyBatch(txn.value(), op);
    WVM_CHECK(r.ok() && r->updates == 1);
  }
  const double update_ms = MsSince(u0);

  const auto a0 = std::chrono::steady_clock::now();
  WVM_CHECK(engine->Abort(txn.value()).ok());
  const double abort_ms = MsSince(a0);

  const bool survived = engine->CheckSession(old_session).ok();
  engine->CloseSession(old_session);
  return {update_ms, abort_ms, survived};
}

void Run() {
  std::printf("=== §7: rollback without logging (%d-row table) ===\n",
              kRows);
  std::printf("%-10s %-10s %12s %12s %s\n", "scheme", "txn size",
              "forward(ms)", "abort(ms)", "old session after abort");
  for (int txn_size : {1000, 5000, 20000}) {
    UndoLogResult undo = UndoLogAbort(txn_size);
    std::printf("%-10s %-10d %12.2f %12.2f %s\n", "undo-log", txn_size,
                undo.update_ms, undo.abort_ms, "n/a (blocking scheme)");
    bench::Emit(StrPrintf("undo-log/txn_%d/forward_ms", txn_size),
                undo.update_ms, "ms");
    bench::Emit(StrPrintf("undo-log/txn_%d/abort_ms", txn_size),
                undo.abort_ms, "ms");
    for (int n : {2, 3}) {
      VnlResult vnl = VnlAbort(n, txn_size);
      std::printf("%-10s %-10d %12.2f %12.2f %s\n",
                  n == 2 ? "2vnl" : "3vnl", txn_size, vnl.update_ms,
                  vnl.abort_ms,
                  vnl.old_session_survived ? "survives (lossless revert)"
                                           : "expired (2VNL revert is "
                                             "lossy one version back)");
      bench::Emit(StrPrintf("%dvnl/txn_%d/forward_ms", n, txn_size),
                  vnl.update_ms, "ms");
      bench::Emit(StrPrintf("%dvnl/txn_%d/abort_ms", n, txn_size),
                  vnl.abort_ms, "ms");
      bench::Emit(StrPrintf("%dvnl/txn_%d/old_session_survived", n,
                            txn_size),
                  vnl.old_session_survived ? 1.0 : 0.0, "bool");
    }
  }
  std::printf(
      "\nShape check (§7): 2VNL pays no before-image logging on the "
      "forward path — the\npre-update attributes already hold the undo "
      "information — at the cost of an\nabort-time sweep and, for n = 2, "
      "expiring sessions pinned one version back.\nWith n = 3 the pushed "
      "history slot makes the revert lossless.\n");
}

}  // namespace
}  // namespace wvm

int main() {
  wvm::Run();
  return wvm::bench::WriteBenchJson("bench_sec7_rollback") ? 0 : 1;
}
