// A tour of the §4 query-rewrite implementation: how the library widens a
// schema, rewrites reader queries (Example 4.1), and turns maintenance
// statements into cursor plans (Examples 4.2-4.4) — all without engine
// support, exactly as the paper proposes for stock DBMSs.
#include <cstdio>

#include "common/logging.h"
#include "core/maintenance_rewriter.h"
#include "core/rewriter.h"
#include "core/vnl_engine.h"
#include "query/executor.h"
#include "sql/parser.h"

using namespace wvm;

int main() {
  DiskManager disk;
  BufferPool pool(1024, &disk);
  auto engine_or = core::VnlEngine::Create(&pool, 2);
  WVM_CHECK(engine_or.ok());
  core::VnlEngine& engine = **engine_or;

  Schema logical(
      {
          Column::String("city", 20),
          Column::String("state", 2),
          Column::String("product_line", 12),
          Column::Date("date"),
          Column::Int32("total_sales", /*updatable=*/true),
      },
      {0, 1, 2, 3});
  auto table_or = engine.CreateTable("DailySales", logical);
  WVM_CHECK(table_or.ok());
  core::VnlTable& table = *table_or.value();
  const core::VersionedSchema& vs = table.versioned_schema();

  std::printf("=== §3.1: schema widening ===\n");
  std::printf("logical:  %s\n", vs.logical().ToString().c_str());
  std::printf("physical: %s\n", vs.physical().ToString().c_str());
  std::printf("bytes/tuple %zu -> %zu under the paper's accounting "
              "(Figure 3)\n\n",
              vs.logical().AttributeBytes(), vs.PaperAttributeBytes());

  std::printf("=== §4.1: reader query rewrite (Example 4.1) ===\n");
  const char* reader_sql =
      "SELECT city, state, SUM(total_sales) FROM DailySales "
      "GROUP BY city, state";
  Result<sql::SelectStmt> stmt = sql::ParseSelect(reader_sql);
  WVM_CHECK(stmt.ok());
  Result<sql::SelectStmt> rewritten = core::RewriteReaderQuery(*stmt, vs);
  WVM_CHECK(rewritten.ok());
  std::printf("original : %s\n", reader_sql);
  std::printf("rewritten: %s\n\n", rewritten->ToSql().c_str());

  std::printf("=== §4.1 for nVNL (our extension; n = 4) ===\n");
  Result<core::VersionedSchema> vs4 =
      core::VersionedSchema::Create(logical, 4);
  WVM_CHECK(vs4.ok());
  std::printf("value CASE : %s\n",
              core::BuildVersionCase(*vs4, 4)->ToSql().c_str());
  std::printf("visibility : %s\n\n",
              core::BuildVisibilityPredicate(*vs4)->ToSql().c_str());

  core::MaintenanceRewriter maint(&engine);
  std::printf("=== §4.2: maintenance statement rewrites ===\n");
  for (const char* dml :
       {"INSERT INTO DailySales VALUES ('San Jose', 'CA', 'golf equip', "
        "'10/14/96', 10000)",
        "UPDATE DailySales SET total_sales = total_sales + 1000 "
        "WHERE city = 'San Jose' AND date = '10/13/96'",
        "DELETE FROM DailySales WHERE city = 'San Jose' AND date = "
        "'10/13/96'"}) {
    Result<std::string> plan = maint.Explain(dml);
    WVM_CHECK(plan.ok());
    std::printf("-- %s\n%s\n", dml, plan->c_str());
  }

  std::printf("=== Executing the rewrite path end to end ===\n");
  Result<core::MaintenanceTxn*> txn = engine.BeginMaintenance();
  WVM_CHECK(txn.ok());
  WVM_CHECK(maint.Execute(txn.value(),
                          "INSERT INTO DailySales VALUES "
                          "('San Jose', 'CA', 'golf equip', '10/14/96', "
                          "10000), "
                          "('Berkeley', 'CA', 'racquetball', '10/14/96', "
                          "12000)")
                .ok());
  WVM_CHECK(engine.Commit(txn.value()).ok());

  core::ReaderSession session = engine.OpenSession();
  // Run the REWRITTEN SQL directly against the physical table, binding
  // :sessionVN — this is all a stock DBMS would need to do.
  Result<query::QueryResult> result = query::ExecuteSelect(
      *rewritten, table.physical_table(),
      {{"sessionVN", Value::Int64(session.session_vn)}});
  WVM_CHECK(result.ok());
  std::printf("rewritten query over the raw widened table "
              "(:sessionVN = %lld):\n%s",
              static_cast<long long>(session.session_vn),
              result->ToString().c_str());
  return 0;
}
