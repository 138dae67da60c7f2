// Reproduces Figure 7 / Example 5.1: the 4VNL tuple for San Jose golf
// equipment after insert@3 (10,000), update@5 (10,200), delete@6 — and the
// per-sessionVN visibility table the example walks through.
#include <cstdio>

#include "bench/bench_json.h"
#include "common/logging.h"
#include "core/maintenance_rewriter.h"
#include "core/vnl_engine.h"

namespace wvm::core {
namespace {

Schema DailySales() {
  return Schema(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      {0, 1, 2, 3});
}

void Run() {
  DiskManager disk;
  BufferPool pool(256, &disk);
  auto engine_or = VnlEngine::Create(&pool, 4);
  WVM_CHECK(engine_or.ok());
  VnlEngine& engine = **engine_or;
  auto table_or = engine.CreateTable("DailySales", DailySales());
  WVM_CHECK(table_or.ok());
  VnlTable& table = *table_or.value();

  MaintenanceRewriter sql(&engine);
  auto run_txn = [&](const std::function<void(MaintenanceTxn*)>& body) {
    Result<MaintenanceTxn*> txn = engine.BeginMaintenance();
    WVM_CHECK(txn.ok());
    body(txn.value());
    WVM_CHECK(engine.Commit(txn.value()).ok());
  };

  run_txn([](MaintenanceTxn*) {});  // VN 1
  run_txn([](MaintenanceTxn*) {});  // VN 2
  run_txn([&](MaintenanceTxn* t) {  // VN 3: insert 10,000
    WVM_CHECK(table.Insert(t, {Value::String("San Jose"),
                               Value::String("CA"),
                               Value::String("golf equip"),
                               Value::Date(1996, 10, 14),
                               Value::Int32(10000)}).ok());
  });
  run_txn([](MaintenanceTxn*) {});  // VN 4
  run_txn([&](MaintenanceTxn* t) {  // VN 5: update to 10,200
    WVM_CHECK(sql.Execute(t, "UPDATE DailySales SET total_sales = 10200 "
                             "WHERE city = 'San Jose'")
                  .ok());
  });
  run_txn([&](MaintenanceTxn* t) {  // VN 6: delete
    WVM_CHECK(
        sql.Execute(t, "DELETE FROM DailySales WHERE city = 'San Jose'").ok());
  });

  // The tuple's record, read through the byte accessors.
  const VersionedSchema& vs = table.versioned_schema();
  const TableHeap* heap = table.physical_table().heap();
  WVM_CHECK(heap->live_records() == 1);
  std::vector<uint8_t> buf;
  WVM_CHECK(heap->Scan([&](Rid, const uint8_t* rec) {
                  buf.assign(rec, rec + heap->record_size());
                  return false;
                })
                .ok());
  const uint8_t* t = buf.data();
  auto column = [&](size_t i) {
    return DeserializeColumn(vs.physical(), t, i);
  };

  std::printf("=== Figure 7: the 4VNL tuple after insert@3, update@5, "
              "delete@6 ===\n");
  std::printf("city=%s state=%s product_line=%s date=%s total_sales=%d\n",
              column(0).AsString().c_str(), column(1).AsString().c_str(),
              column(2).AsString().c_str(), column(3).ToString().c_str(),
              column(4).AsInt32());
  for (int slot = 0; slot < vs.num_slots(); ++slot) {
    std::printf("  tupleVN%d=%lld operation%d=%s pre_total_sales%d=%s\n",
                slot + 1, static_cast<long long>(vs.RawTupleVn(t, slot)),
                slot + 1,
                vs.RawSlotEmpty(t, slot)
                    ? "-"
                    : OpToString(vs.RawOperation(t, slot).value()),
                slot + 1, column(vs.PreIndex(0, slot)).ToString().c_str());
  }

  wvm::bench::Emit("fig7/populated_slots",
                   static_cast<double>(vs.RawPopulatedSlots(t)), "slots");

  std::printf("\n=== Example 5.1: what each sessionVN sees ===\n");
  std::printf("sessionVN  result\n");
  size_t visible = 0, ignored = 0, expired = 0;
  Row out = LogicalPlaceholders(vs);
  for (Vn vn = 7; vn >= 1; --vn) {
    const VersionResolution res = ResolveVersionRaw(vs, t, vn);
    switch (res.outcome) {
      case ReadOutcome::kRow:
        MaterializeVersionRawInto(vs, t, res, vs.logical_columns(), &out);
        std::printf("%9lld  total_sales = %d\n",
                    static_cast<long long>(vn), out[4].AsInt32());
        ++visible;
        break;
      case ReadOutcome::kIgnore:
        std::printf("%9lld  tuple ignored (not visible)\n",
                    static_cast<long long>(vn));
        ++ignored;
        break;
      case ReadOutcome::kExpired:
        std::printf("%9lld  SESSION EXPIRED\n",
                    static_cast<long long>(vn));
        ++expired;
        break;
    }
  }
  wvm::bench::Emit("example5_1/visible_sessions",
                   static_cast<double>(visible), "sessions");
  wvm::bench::Emit("example5_1/ignored_sessions",
                   static_cast<double>(ignored), "sessions");
  wvm::bench::Emit("example5_1/expired_sessions",
                   static_cast<double>(expired), "sessions");
  std::printf(
      "\n(paper: sessionVN >= 6 ignores the deleted tuple; 5 reads "
      "10,200;\n 3-4 read 10,000; 2 ignores it; < 2 has expired.)\n");
}

}  // namespace
}  // namespace wvm::core

int main() {
  wvm::core::Run();
  return wvm::bench::WriteBenchJson("bench_fig7_nvnl") ? 0 : 1;
}
