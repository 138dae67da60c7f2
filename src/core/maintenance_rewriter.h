#ifndef OPENWVM_CORE_MAINTENANCE_REWRITER_H_
#define OPENWVM_CORE_MAINTENANCE_REWRITER_H_

#include <string>

#include "common/result.h"
#include "core/vnl_engine.h"
#include "query/eval.h"

namespace wvm::core {

// Implements §4.2: SQL INSERT / UPDATE / DELETE statements issued by a
// maintenance transaction against the *logical* schema are executed with
// the cursor approach of Examples 4.2-4.4 — each affected tuple is
// dispatched through the decision tables so both versions are preserved.
//
// INSERT runs the per-row loop of Example 4.2 for every VALUES list: each
// row is one VnlTable::Insert, so a failing row (e.g. a duplicate key)
// returns its error with the rows before it applied. UPDATE and DELETE
// hand the parsed statement to VnlTable::Update / Delete, which bind WHERE
// and SET once and read the cursor through the Table-1 reader step at
// maintenanceVN (index-routed when WHERE binds a unique key or a
// secondary index); an UPDATE is a list of edits to updatable columns, so
// a SET on any other column fails with kInvalidArgument before any write.
//
// Explain() renders the cursor pseudocode for a statement in the style of
// the paper's examples, which doubles as executable documentation.
class MaintenanceRewriter {
 public:
  explicit MaintenanceRewriter(VnlEngine* engine) : engine_(engine) {}

  // Parses and executes one maintenance statement inside `txn`.
  // Parameters may be referenced as :name in the statement. Returns the
  // number of logical tuples affected.
  Result<size_t> Execute(MaintenanceTxn* txn, const std::string& sql_text,
                         const query::ParamMap& params = {});

  // Renders the rewritten cursor pseudocode for a statement (Example 4.2
  // for INSERT, 4.3 for UPDATE, 4.4 for DELETE).
  Result<std::string> Explain(const std::string& sql_text) const;

 private:
  Result<size_t> ExecuteInsert(MaintenanceTxn* txn,
                               const sql::InsertStmt& stmt,
                               const query::ParamMap& params);

  VnlEngine* const engine_;
};

}  // namespace wvm::core

#endif  // OPENWVM_CORE_MAINTENANCE_REWRITER_H_
