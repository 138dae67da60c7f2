// Differential suite for SnapshotSelect's heap pass: for randomly
// generated tables, maintenance histories, and predicates, the byte-level
// streaming read must return exactly the rows of the Row-based Table-1
// reference — Table::ScanRows over the physical relation, ReadVersion at
// the session VN, and query::ExecuteSelect over the rows it yields — in
// the same order, before, during, and after a maintenance transaction,
// and fail with the same status code (session expiration, a type error in
// a WHERE conjunct). Where both failures can occur, the reference reports
// the first one in heap order, as the reader step does.
#include <gtest/gtest.h>

#include <cinttypes>
#include <functional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/vnl_engine.h"
#include "core/versioned_schema.h"
#include "core/vnl_table.h"
#include "query/executor.h"
#include "sql/parser.h"
#include "tests/support/keyed_maintenance.h"
#include "tests/support/row_reference.h"

namespace wvm::core {
namespace {

// Logical schema exercising every predicate-compilation path: compiled
// string (grp, tag — tag is sometimes NULL), compiled int64/int32 (id,
// cnt), an uncompilable double (wt) forcing the generic invariant
// fallback, and updatable columns (qty, amt) forcing reconstructed-side
// filters.
Schema DiffSchema() {
  return Schema({Column::Int64("id"), Column::String("grp", 4),
                 Column::String("tag", 6), Column::Int32("cnt"),
                 Column::Double("wt"),
                 Column::Int64("qty", /*updatable=*/true),
                 Column::Double("amt", /*updatable=*/true)},
                {0});
}

Row MakeItem(Rng* rng, int64_t id) {
  Row row;
  row.push_back(Value::Int64(id));
  row.push_back(Value::String(StrPrintf("g%" PRId64, rng->Uniform(0, 5))));
  if (rng->Bernoulli(0.2)) {
    row.push_back(Value::Null(TypeId::kString));
  } else {
    static const std::vector<std::string> kTags = {"alpha", "beta", "gamma",
                                                   "delta"};
    row.push_back(Value::String(rng->PickFrom(kTags)));
  }
  row.push_back(Value::Int32(static_cast<int32_t>(rng->Uniform(0, 100))));
  row.push_back(Value::Double(rng->UniformDouble(0.0, 1.0)));
  row.push_back(Value::Int64(rng->Uniform(-1000, 1000)));
  row.push_back(Value::Double(rng->UniformDouble(-10.0, 10.0)));
  return row;
}

// Query pool. Covers: unfiltered scans, compiled string/int predicates
// (including literal-on-the-left and literal-longer-than-width), NULL
// columns under comparison, parameter bindings, generic invariant
// fallback (double column), reconstructed-side predicates (updatable
// columns), grouped aggregation — MIN/MAX/AVG of an updatable column,
// GROUP BY an updatable column (keys read from pre-update slots), COUNT
// and MIN of a nullable string, a two-column key with NULLs, a grand total
// whose WHERE rejects every row — and a failing conjunct ahead of a
// compiled one. The aggregates read every tuple through the reader's one
// reused row, across current and pre-update versions.
const char* kQueries[] = {
    "SELECT * FROM t",
    "SELECT id, qty FROM t WHERE grp = 'g1'",
    "SELECT id FROM t WHERE grp >= 'g2' AND cnt < 80",
    "SELECT id FROM t WHERE 50 > cnt",
    "SELECT id FROM t WHERE tag = 'alpha'",
    "SELECT id FROM t WHERE tag <> 'beta'",
    "SELECT id FROM t WHERE grp = 'g1xxxxxx'",
    "SELECT id FROM t WHERE grp > 'g1xxxxxx'",
    "SELECT id FROM t WHERE wt < 0.5",
    "SELECT id, amt FROM t WHERE qty > 0",
    "SELECT id FROM t WHERE cnt >= 20 AND qty > :q",
    "SELECT grp, COUNT(*) AS c, SUM(qty) AS s FROM t GROUP BY grp",
    "SELECT COUNT(*) AS c FROM t WHERE grp = 'g3' AND qty < :q",
    "SELECT MIN(qty) AS lo, MAX(qty) AS hi, AVG(qty) AS a FROM t",
    "SELECT qty, COUNT(*) AS c FROM t WHERE cnt < 30 GROUP BY qty",
    "SELECT COUNT(tag) AS c, MIN(tag) AS m, MAX(tag) AS x FROM t",
    "SELECT grp, tag, SUM(amt) AS s, AVG(cnt) AS a FROM t GROUP BY grp, tag",
    "SELECT COUNT(*) AS c, SUM(qty) AS s, MAX(amt) AS m FROM t "
    "WHERE grp = 'none'",
    // A type error ahead of a compiled conjunct: WHERE order decides that
    // every visible tuple fails, on every path.
    "SELECT id FROM t WHERE id = 'x' AND grp = 'zz'",
};

// The Row-based Table-1 reference: every physical tuple, deserialized,
// resolved at the session VN by ReadVersion, and the visible logical rows
// handed to the executor, which evaluates the whole WHERE itself. A
// grouped read's keys are encoded from those logical values, not off the
// record. The first expired tuple in heap order ends the read with
// kSessionExpired; a WHERE error on an earlier tuple ends it first.
Result<query::QueryResult> ReferenceSelect(const VnlTable& table,
                                           const ReaderSession& session,
                                           const sql::SelectStmt& stmt,
                                           const query::ParamMap& params) {
  const VersionedSchema& vs = table.versioned_schema();
  KeyCodec codec;  // no columns unless the SELECT groups
  query::PushdownSource source;
  source.group = [&](const std::vector<size_t>& key_cols) {
    codec = KeyCodec(vs.logical(), key_cols);
  };
  source.scan = [&](const query::KeyedRowSink& sink) {
    Status expired;
    Row logical;
    std::string key;
    WVM_RETURN_IF_ERROR(table.physical_table().ScanRows(
        [&](Rid, const Row& phys) {
          switch (rowref::ReadVersion(vs, phys, session.session_vn, &logical)) {
            case ReadOutcome::kIgnore:
              return true;
            case ReadOutcome::kExpired:
              expired = Status::SessionExpired("reference: tuple expired");
              return false;
            case ReadOutcome::kRow:
              WVM_CHECK(codec.FromValues(logical, &key, /*whole_row=*/true));
              return sink(logical, key);
          }
          return false;
        }));
    return expired;
  };
  return query::ExecuteSelect(stmt, vs.logical(), source, params);
}

class SnapshotSelectDiffTest : public ::testing::Test {
 protected:
  // Runs every pool query through SnapshotSelect's heap pass and through
  // the reference; both must agree row for row, in the same order.
  void ExpectSelectMatchesReference(VnlEngine* engine, VnlTable* table,
                                    const ReaderSession& session,
                                    const query::ParamMap& params) {
    // Routing off: the heap pass is the path under test.
    engine->SetScanOptions({.index_routing = false});
    for (const char* sql : kQueries) {
      SCOPED_TRACE(std::string("query: ") + sql);
      Result<sql::SelectStmt> stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

      Result<query::QueryResult> expected =
          ReferenceSelect(*table, session, *stmt, params);
      Result<query::QueryResult> actual =
          table->SnapshotSelect(session, *stmt, params);

      ASSERT_EQ(expected.ok(), actual.ok())
          << (expected.ok() ? actual.status() : expected.status())
                 .ToString();
      if (!expected.ok()) {
        EXPECT_EQ(expected.status().code(), actual.status().code())
            << expected.status().ToString() << " vs "
            << actual.status().ToString();
        continue;
      }
      EXPECT_EQ(expected->column_names, actual->column_names);
      ASSERT_EQ(expected->rows.size(), actual->rows.size());
      for (size_t i = 0; i < expected->rows.size(); ++i) {
        EXPECT_TRUE(expected->rows[i] == actual->rows[i])
            << "row " << i << " differs";
      }
    }
  }

  // One full randomized scenario: load, churn, and scans before / during /
  // after a maintenance transaction.
  void RunSeed(uint64_t seed) {
    SCOPED_TRACE(StrPrintf("seed=%llu",
                           static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    DiskManager disk;
    BufferPool pool(1024, &disk);
    const int n = rng.Bernoulli(0.5) ? 2 : 3;
    auto engine_or = VnlEngine::Create(&pool, n);
    ASSERT_TRUE(engine_or.ok());
    VnlEngine* engine = engine_or.value().get();
    auto table_or = engine->CreateTable("t", DiffSchema());
    ASSERT_TRUE(table_or.ok());
    VnlTable* table = table_or.value();

    const int64_t rows = rng.Uniform(120, 400);
    {
      Result<MaintenanceTxn*> load = engine->BeginMaintenance();
      ASSERT_TRUE(load.ok());
      for (int64_t id = 0; id < rows; ++id) {
        ASSERT_TRUE(table->Insert(*load, MakeItem(&rng, id)).ok());
      }
      ASSERT_TRUE(engine->Commit(*load).ok());
    }

    const query::ParamMap params = {
        {"q", Value::Int64(rng.Uniform(-500, 500))}};
    ReaderSession before = engine->OpenSession();
    ExpectSelectMatchesReference(engine, table, before, params);

    // Random churn, scanned mid-transaction: a session pinned before the
    // writer began must read the untouched snapshot; a fresh session pins
    // the last committed version and does too.
    Result<MaintenanceTxn*> churn = engine->BeginMaintenance();
    ASSERT_TRUE(churn.ok());
    auto apply_random_ops = [&](int count) {
      for (int i = 0; i < count; ++i) {
        const int64_t id = rng.Uniform(0, rows + 20);
        const Row key = {Value::Int64(id)};
        const double dice = rng.UniformDouble(0.0, 1.0);
        if (dice < 0.5) {
          const int64_t delta = rng.Uniform(-300, 300);
          ASSERT_TRUE(testutil::UpdateKey(table, *churn, key,
                                          [&](const Row& row) {
                                            Row next = row;
                                            next[5] = Value::Int64(
                                                next[5].AsInt64() + delta);
                                            next[6] = Value::Double(
                                                next[6].AsDouble() * 0.5);
                                            return next;
                                          })
                          .ok());
        } else if (dice < 0.75) {
          ASSERT_TRUE(testutil::DeleteKey(table, *churn, key).ok());
        } else {
          // Re-inserting a live key is a uniqueness error; over a corpse
          // it must keep the corpse's non-updatable values (§3.1).
          StatusCode want;
          const Row item =
              rowref::PlanInsert(*table, MakeItem(&rng, id), &rng, &want);
          const Status s = table->Insert(*churn, item);
          ASSERT_EQ(s.code(), want) << s.ToString();
        }
      }
    };
    apply_random_ops(static_cast<int>(rng.Uniform(10, 40)));

    ReaderSession during = engine->OpenSession();
    ExpectSelectMatchesReference(engine, table, before, params);
    ExpectSelectMatchesReference(engine, table, during, params);

    apply_random_ops(static_cast<int>(rng.Uniform(5, 20)));
    ASSERT_TRUE(engine->Commit(*churn).ok());

    // After commit: `before` now takes pre-update reads; a fresh session
    // reads the new current version. With a second churn transaction some
    // seeds drive `before` into expiration (n = 2) — SnapshotSelect and
    // the reference must then fail with the same status code, which
    // ExpectSelectMatchesReference asserts.
    ReaderSession after = engine->OpenSession();
    ExpectSelectMatchesReference(engine, table, before, params);
    ExpectSelectMatchesReference(engine, table, after, params);

    if (rng.Bernoulli(0.5)) {
      Result<MaintenanceTxn*> churn2 = engine->BeginMaintenance();
      ASSERT_TRUE(churn2.ok());
      churn = churn2;  // apply_random_ops writes through `churn`
      apply_random_ops(static_cast<int>(rng.Uniform(10, 30)));
      ASSERT_TRUE(engine->Commit(*churn2).ok());
      ExpectSelectMatchesReference(engine, table, before, params);
      ExpectSelectMatchesReference(engine, table, after, params);
    }
  }
};

TEST_F(SnapshotSelectDiffTest, SeedsBatch0) {
  for (uint64_t seed = 0; seed < 13; ++seed) RunSeed(seed);
}

TEST_F(SnapshotSelectDiffTest, SeedsBatch1) {
  for (uint64_t seed = 13; seed < 26; ++seed) RunSeed(seed);
}

TEST_F(SnapshotSelectDiffTest, SeedsBatch2) {
  for (uint64_t seed = 26; seed < 39; ++seed) RunSeed(seed);
}

TEST_F(SnapshotSelectDiffTest, SeedsBatch3) {
  for (uint64_t seed = 39; seed < 52; ++seed) RunSeed(seed);
}

}  // namespace
}  // namespace wvm::core
