#ifndef OPENWVM_QUERY_EXECUTOR_H_
#define OPENWVM_QUERY_EXECUTOR_H_

#include <functional>
#include <string>
#include <string_view>
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
// to stop. This lets the same executor run over any in-memory row stream.
using RowSource =
    std::function<void(const std::function<bool(const Row&)>& sink)>;

// What a PushdownSource streams: a row and, for a grouped SELECT, the
// row's GROUP BY key bytes (see PushdownSource::group). Both are valid
// only for the call; the sink returns false to stop.
using KeyedRowSink = std::function<bool(const Row& row, std::string_view key)>;

// A row stream that can additionally evaluate WHERE conjuncts itself,
// before rows reach the executor ("predicate pushdown"), and hand over
// each row's GROUP BY key as bytes. The executor splits the WHERE clause
// into top-level AND conjuncts and offers each to `absorb`; a conjunct the
// source accepts becomes the source's obligation — every row `scan` hands
// to the sink must already satisfy it — and only the declined remainder is
// evaluated per row by the executor. `scan` returns the scan's own status
// (e.g. kSessionExpired mid-stream), which takes precedence over a
// partially assembled result.
struct PushdownSource {
  // May be null: then no conjunct is absorbed.
  std::function<bool(const sql::Expr& conjunct)> absorb;
  // May be null. Called once, after conjunct absorption and before `scan`,
  // with the set of input columns the executor will actually read
  // ("projection pushdown"). `needed[i]` false means the executor never
  // evaluates column i of any streamed row, so the source may leave a NULL
  // placeholder there instead of materializing the value; an empty vector
  // means every column is needed. GROUP BY columns are not marked: their
  // values arrive as key bytes. The source must still account for columns
  // its own absorbed conjuncts read post-materialization.
  std::function<void(const std::vector<bool>& needed)> project;
  // Called once, after `project` and before `scan`, for a grouped SELECT
  // only (a GROUP BY, or an aggregate without one), with the GROUP BY
  // columns: input-schema positions in GROUP BY order, empty for a grand
  // total. From then on the `key` of every streamed row must be the bytes
  // KeyCodec(input_schema, key_cols) gives the row's values of those
  // columns — for a versioned source, the values of the version it read.
  // The executor groups on these bytes and decodes a group's key to
  // Values only when the group first appears. Required for a grouped
  // SELECT (InvalidArgument when null); ungrouped reads ignore `key`.
  std::function<void(const std::vector<size_t>& key_cols)> group;
  std::function<Status(const KeyedRowSink& sink)> scan;
};

// Executes a SELECT over rows of `input_schema` produced by `source`.
// Supports WHERE, projection, GROUP BY with SUM/COUNT/AVG/MIN/MAX, and
// grand-total aggregation without GROUP BY. Groups are equal key bytes
// (KeyCodec), so GROUP BY values are what their columns would store: an
// over-width string is truncated, an INT32 in an INT64 column is an
// INT64, -0.0 is +0.0 and every NaN is one group. Grouped output is sorted
// by group key so results are deterministic. SUM returns INT64 over
// integers and DOUBLE once a DOUBLE input arrives; AVG returns DOUBLE.
// SUM/AVG of a non-numeric value, MIN/MAX over values of incompatible
// types, an INT64 SUM overflow and a GROUP BY value its column cannot hold
// (CheckColumnValue, or a row too short to have it) are InvalidArgument.
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

// Convenience overload scanning a catalog table: one heap pass that
// decodes only the columns the statement reads, into one reused row, and
// makes GROUP BY keys off the record bytes.
Result<QueryResult> ExecuteSelect(const sql::SelectStmt& stmt,
                                  const Table& table,
                                  const ParamMap& params);

}  // namespace wvm::query

#endif  // OPENWVM_QUERY_EXECUTOR_H_
