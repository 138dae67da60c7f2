#include "core/maintenance_rewriter.h"

#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/parser.h"

namespace wvm::core {

namespace {

// Evaluates a value expression that may only reference literals and
// parameters (INSERT VALUES lists): bound against no columns, so a column
// reference fails as unknown.
Result<Value> EvalConstant(const sql::Expr& expr,
                           const query::ParamMap& params) {
  static const Schema kEmpty{};
  static const Row kNoRow{};
  const query::BoundExpr bound = query::BoundExpr::Bind(expr, kEmpty, params);
  Value scratch;
  WVM_ASSIGN_OR_RETURN(const Value* v, bound.Eval(kNoRow, &scratch));
  return *v;  // may point into `bound`: copied before it is destroyed
}

}  // namespace

Result<size_t> MaintenanceRewriter::ExecuteInsert(
    MaintenanceTxn* txn, const sql::InsertStmt& stmt,
    const query::ParamMap& params) {
  WVM_ASSIGN_OR_RETURN(VnlTable * table, engine_->GetTable(stmt.table));
  const Schema& logical = table->logical_schema();
  std::vector<size_t> targets;  // value i's column, resolved at row 0
  for (const std::vector<sql::ExprPtr>& exprs : stmt.rows) {
    if (stmt.columns.empty() && exprs.size() != logical.num_columns()) {
      return Status::InvalidArgument(StrPrintf(
          "INSERT supplies %zu values for %zu columns", exprs.size(),
          logical.num_columns()));
    }
    if (!stmt.columns.empty() && exprs.size() != stmt.columns.size()) {
      return Status::InvalidArgument("INSERT column/value count mismatch");
    }
    for (size_t i = targets.size(); i < exprs.size(); ++i) {
      if (stmt.columns.empty()) {
        targets.push_back(i);  // schema order
        continue;
      }
      WVM_ASSIGN_OR_RETURN(size_t idx, logical.IndexOf(stmt.columns[i]));
      targets.push_back(idx);
    }
    Row row(logical.num_columns());
    for (size_t i = 0; i < logical.num_columns(); ++i) {
      row[i] = Value::Null(logical.column(i).type);
    }
    for (size_t i = 0; i < exprs.size(); ++i) {
      WVM_ASSIGN_OR_RETURN(Value v, EvalConstant(*exprs[i], params));
      WVM_ASSIGN_OR_RETURN(row[targets[i]],
                           query::CoerceToColumn(logical.column(targets[i]),
                                                 std::move(v)));
    }
    WVM_RETURN_IF_ERROR(table->Insert(txn, row));
  }
  return stmt.rows.size();
}

Result<size_t> MaintenanceRewriter::Execute(MaintenanceTxn* txn,
                                            const std::string& sql_text,
                                            const query::ParamMap& params) {
  WVM_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
      return ExecuteInsert(txn, *stmt.insert, params);
    case sql::StatementKind::kUpdate: {
      WVM_ASSIGN_OR_RETURN(VnlTable * table,
                           engine_->GetTable(stmt.update->table));
      return table->Update(txn, *stmt.update, params);
    }
    case sql::StatementKind::kDelete: {
      WVM_ASSIGN_OR_RETURN(VnlTable * table, engine_->GetTable(stmt.del->table));
      return table->Delete(txn, *stmt.del, params);
    }
    case sql::StatementKind::kSelect:
      return Status::InvalidArgument(
          "SELECT is a reader statement; use the reader rewrite (§4.1)");
  }
  return Status::Internal("bad statement kind");
}

Result<std::string> MaintenanceRewriter::Explain(
    const std::string& sql_text) const {
  WVM_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql_text));

  const std::string table_name = [&] {
    switch (stmt.kind) {
      case sql::StatementKind::kInsert: return stmt.insert->table;
      case sql::StatementKind::kUpdate: return stmt.update->table;
      case sql::StatementKind::kDelete: return stmt.del->table;
      default: return std::string();
    }
  }();
  if (table_name.empty()) {
    return Status::InvalidArgument("EXPLAIN supports maintenance DML only");
  }
  WVM_ASSIGN_OR_RETURN(VnlTable * table, engine_->GetTable(table_name));
  const Schema& logical = table->logical_schema();
  const std::vector<size_t> updatable = logical.UpdatableIndices();

  // Renders "set r.pre_X = <rhs>" lines for every updatable attribute;
  // rhs is "null" (inserts) or "r.X" (updates/deletes preserve CV).
  auto pre_assignments = [&](bool from_current) {
    std::string out;
    for (size_t u : updatable) {
      const std::string& name = logical.column(u).name;
      const std::string rhs = from_current ? "r." + name : "null";
      out += StrPrintf("    set r.pre_%s = %s\n", name.c_str(),
                       rhs.c_str());
    }
    return out;
  };

  std::string out;
  switch (stmt.kind) {
    case sql::StatementKind::kInsert: {
      // Example 4.2 shape.
      out += "For each tuple t to insert\n";
      out += "  INSERT INTO " + table_name +
             " VALUES (:maintenanceVN, 'insert', t.*, null pre-update "
             "values)          % line 3 in Table 2\n";
      out += "  If insert failed due to a unique key conflict,\n";
      out += "    Let r = the conflicting tuple (same key as t)\n";
      out += "    If r.tupleVN < :maintenanceVN,"
             "                                    % line 1 in Table 2\n";
      out += "      Update r\n";
      out += pre_assignments(false);
      out += "        set r.<updatable> = t.<updatable>\n";
      out += "        set r.tupleVN = :maintenanceVN\n";
      out += "        set r.operation = 'insert'\n";
      out += "    Else"
             "                                                          "
             "% line 2 in Table 2\n";
      out += "      Update r\n";
      out += "        set r.<updatable> = t.<updatable>\n";
      out += "        set r.operation = 'update'\n";
      return out;
    }
    case sql::StatementKind::kUpdate: {
      // Example 4.3 shape.
      sql::SelectStmt cursor;
      cursor.select_star = true;
      cursor.table = table_name;
      if (stmt.update->where != nullptr) {
        cursor.where = stmt.update->where->Clone();
      }
      out += "For each tuple r in\n  (" + cursor.ToSql() + ")\n";
      out += "  If r.tupleVN < :maintenanceVN,"
             "                                    % line 1 in Table 3\n";
      out += "    Update r\n";
      out += pre_assignments(true);
      for (const auto& [col, expr] : stmt.update->sets) {
        out += StrPrintf("    set r.%s = %s\n", col.c_str(),
                         expr->ToSql().c_str());
      }
      out += "    set r.tupleVN = :maintenanceVN\n";
      out += "    set r.operation = 'update'\n";
      out += "  Else"
             "                                                          "
             "% line 2 in Table 3\n";
      out += "    Update r\n";
      for (const auto& [col, expr] : stmt.update->sets) {
        out += StrPrintf("      set r.%s = %s\n", col.c_str(),
                         expr->ToSql().c_str());
      }
      return out;
    }
    case sql::StatementKind::kDelete: {
      // Example 4.4 shape.
      sql::SelectStmt cursor;
      cursor.select_star = true;
      cursor.table = table_name;
      if (stmt.del->where != nullptr) cursor.where = stmt.del->where->Clone();
      out += "For each tuple r in\n  (" + cursor.ToSql() + ")\n";
      out += "  If r.tupleVN < :maintenanceVN,"
             "                                    % line 1 in Table 4\n";
      out += "    Update r\n";
      out += pre_assignments(true);
      out += "    set r.tupleVN = :maintenanceVN\n";
      out += "    set r.operation = 'delete'\n";
      out += "  Else"
             "                                                          "
             "% line 2 in Table 4\n";
      out += "    If r.operation = 'insert'\n";
      out += "      Delete r\n";
      out += "    Else\n";
      out += "      Update r\n";
      out += "        set r.operation = 'delete'\n";
      return out;
    }
    default:
      return Status::InvalidArgument("EXPLAIN supports maintenance DML only");
  }
}

}  // namespace wvm::core
