#ifndef OPENWVM_QUERY_EVAL_H_
#define OPENWVM_QUERY_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "sql/ast.h"

namespace wvm::query {

// Bindings for :name placeholders — e.g. {"sessionVN", Value::Int64(3)}
// when executing the paper's rewritten reader queries (§4.1).
using ParamMap = std::unordered_map<std::string, Value>;

// A scalar expression bound once per statement to one schema and one
// parameter set, and then evaluated per row with no name lookup and no
// operand copy. Column references become schema positions, parameters
// become constants, and a string compared with a DATE column is parsed at
// bind time; where an operand's type is known only at run time (a CASE
// result, say) a string meeting a DATE is parsed then. Comparing other
// types, int vs double aside, is InvalidArgument. NULLs follow SQL:
// comparisons and arithmetic with NULL yield NULL, AND/OR use Kleene logic
// and short-circuit, CASE with no matching WHEN and no ELSE yields NULL,
// and integer overflow is InvalidArgument.
//
// Binding never fails. An unresolvable column (kNotFound), an unbound
// parameter, an aggregate call and a date string that does not parse each
// bind to a node that returns its error when — and only when — a row
// reaches it.
class BoundExpr {
 public:
  // Binds `expr` against `schema` and `params`. With `record` set — the
  // layout of serialized records whose leading columns are `schema`'s — a
  // top-level `column cmp constant` over an int, DATE or string column is
  // also prepared to run on record bytes (TestRecord).
  static BoundExpr Bind(const sql::Expr& expr, const Schema& schema,
                        const ParamMap& params,
                        const Schema* record = nullptr);

  // The expression's value in `row`: a pointer into `row` for a plain
  // column, to a bound constant, or to *scratch — valid while all three
  // are.
  Result<const Value*> Eval(const Row& row, Value* scratch) const;

  // The expression as a predicate: NULL and false both reject.
  Result<bool> Test(const Row& row) const;

  // Whether TestRecord applies. Such an expression never fails, and
  // TestRecord agrees with Test on the record's decoded row.
  bool on_record() const { return record_.has_value(); }
  bool TestRecord(const uint8_t* rec) const;

  // Sets (*needed)[i] for every schema column i the expression reads.
  void MarkColumns(std::vector<bool>* needed) const;
  // False when a column reference names no schema column.
  bool resolved() const { return resolved_; }
  // True when the expression reads an updatable column.
  bool touches_updatable() const { return touches_updatable_; }
  // True when the expression contains an aggregate call.
  bool has_aggregate() const { return has_aggregate_; }
  // False only when no row conforming to the schema can make evaluation
  // fail: every comparison has comparable operand types, and there is no
  // arithmetic, negation, CASE-typed comparand or deferred error.
  bool can_fail() const { return nodes_.back().can_fail; }

  // For `column = constant`, or an OR of such equalities over one column
  // (the IN-list shape), whose every comparand matches the column's type
  // (an int for an int column, a DATE for a DATE column, a string no wider
  // than a string column): the column and its comparands, as bound — a
  // KeyCodec turns them into key bytes. nullopt otherwise.
  const std::optional<size_t>& key_column() const { return key_column_; }
  const std::vector<Value>& key_values() const { return key_values_; }

 private:
  BoundExpr() = default;

  enum class Op : uint8_t {
    kColumn, kConst, kError, kNeg, kNot, kIsNull, kArith, kCompare, kAnd,
    kOr, kCase
  };

  // One node of the program. Children precede their parent; the root is
  // the last node. `type` (when known) and `can_fail` are what binding
  // learned about the node.
  struct Node {
    Op op;
    sql::BinaryOp binary = sql::BinaryOp::kAdd;  // kArith, kCompare
    Result<Value> (*arith)(const Value&, const Value&) = nullptr;  // kArith
    bool flag = false;  // kIsNull: IS NOT NULL; kCase: `other` is set
    // Operands. A CASE binds as a chain of one node per WHEN: lhs the
    // condition, rhs the result, other the rest (the next WHEN or the
    // ELSE; without one the CASE yields NULL).
    uint32_t lhs = 0, rhs = 0, other = 0;
    size_t column = 0;  // kColumn: schema position; kError: errors_ index
    Value value;        // kConst
    std::optional<TypeId> type;
    bool can_fail = true;
  };

  // The record-bytes form of a `column cmp constant` root (column and
  // comparison are the root's): a rejected tuple costs one integer load or
  // memcmp, no Value and no Row.
  struct RecordTest {
    size_t offset = 0;   // byte offset of the value slot in the record
    uint16_t width = 0;  // slot width: 4 or 8 for an int, else a string's
    std::string string_rhs;   // a string constant, zero-padded to `width`
    bool rhs_longer = false;  // the string exceeded the width
  };

  uint32_t BindNode(const sql::Expr& e, const Schema& schema,
                    const ParamMap& params);
  void BindComparison(Node* n);
  // Makes *n a node that fails with `error` when a row reaches it.
  void Defer(Node* n, Status error);
  // The one `column cmp constant` matcher, for index keys and the record
  // test: the column `n` compares (on the left, as binding leaves it) with
  // a non-NULL constant of exactly its type — an int for an int column, a
  // DATE for a DATE column, a string for a string column. A double can be
  // SQL-equal to an int without hashing or encoding alike.
  const Column* ExactColumnConstant(const Node& n, const Schema& schema) const;
  bool CollectKeys(uint32_t i, const Schema& schema, size_t* column,
                   std::vector<Value>* values) const;
  void BindRecordTest(const Schema& schema, const Schema& record);
  // Evaluates node `i`; *out then points into `row`, at a constant or at
  // *tmp.
  Status Run(uint32_t i, const Row& row, Value* tmp, const Value** out) const;

  std::vector<Node> nodes_;
  std::vector<Status> errors_;  // the deferred errors of kError nodes
  bool resolved_ = true;
  bool touches_updatable_ = false;
  bool has_aggregate_ = false;
  std::optional<size_t> key_column_;
  std::vector<Value> key_values_;
  std::optional<RecordTest> record_;
};

// SQL assignment of `v` to column `col` (INSERT VALUES, UPDATE SET): a
// string for a DATE column is parsed; any other value must be one the
// column can hold (CheckColumnValue), so an INT64 outside INT32's range
// does not fit an INT32 column, nor a DOUBLE an integer column.
Result<Value> CoerceToColumn(const Column& col, Value v);

}  // namespace wvm::query

#endif  // OPENWVM_QUERY_EVAL_H_
