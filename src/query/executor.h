#ifndef OPENWVM_QUERY_EXECUTOR_H_
#define OPENWVM_QUERY_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "query/eval.h"
#include "sql/ast.h"

namespace wvm::query {

// Materialized query output.
struct QueryResult {
  std::vector<std::string> column_names;
  std::vector<Row> rows;

  // Renders an aligned ASCII table (used by the examples and benches to
  // print paper-figure-style relation states).
  std::string ToString() const;
};

// Abstract row stream: calls the sink for each row; the sink returns false
// to stop. This lets the same executor run over a raw Table scan or over a
// 2VNL snapshot view of a table.
using RowSource =
    std::function<void(const std::function<bool(const Row&)>& sink)>;

// A row stream that can additionally evaluate WHERE conjuncts itself,
// before rows reach the executor ("predicate pushdown"). The executor
// splits the WHERE clause into top-level AND conjuncts and offers each to
// `absorb`; a conjunct the source accepts becomes the source's obligation
// — every row `scan` hands to the sink must already satisfy it — and only
// the declined remainder is evaluated per row by the executor. `scan`
// returns the scan's own status (e.g. kSessionExpired mid-stream), which
// takes precedence over a partially assembled result.
struct PushdownSource {
  // May be null: then no conjunct is absorbed.
  std::function<bool(const sql::Expr& conjunct)> absorb;
  // May be null. Called once, after conjunct absorption and before `scan`,
  // with the set of input columns the executor will actually read
  // ("projection pushdown"). `needed[i]` false means the executor never
  // evaluates column i of any streamed row, so the source may leave a NULL
  // placeholder there instead of materializing the value; an empty vector
  // means every column is needed. The source must still account for
  // columns its own absorbed conjuncts read post-materialization.
  std::function<void(const std::vector<bool>& needed)> project;
  std::function<Status(const std::function<bool(const Row&)>& sink)> scan;
};

// Executes a SELECT over rows of `input_schema` produced by `source`.
// Supports WHERE, projection, GROUP BY with SUM/COUNT/AVG/MIN/MAX, and
// grand-total aggregation without GROUP BY. Grouped output is sorted by
// group key so results are deterministic. SUM returns INT64 over integers
// and DOUBLE once a DOUBLE input arrives; AVG returns DOUBLE. SUM/AVG of a
// non-numeric value, MIN/MAX over values of incompatible types and an
// INT64 SUM overflow are InvalidArgument.
Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Schema& input_schema,
                                  const RowSource& source,
                                  const ParamMap& params);

// Pushdown-capable overload: WHERE conjuncts accepted by `source.absorb`
// are evaluated inside the source's scan; the executor evaluates the rest.
Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Schema& input_schema,
                                  const PushdownSource& source,
                                  const ParamMap& params);

// Convenience overload scanning a catalog table.
Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Table& table,
                                  const ParamMap& params);

}  // namespace wvm::query

#endif  // OPENWVM_QUERY_EXECUTOR_H_
