#ifndef OPENWVM_TESTS_SUPPORT_SNAPSHOT_ROWS_H_
#define OPENWVM_TESTS_SUPPORT_SNAPSHOT_ROWS_H_

#include <utility>
#include <vector>

#include "core/vnl_table.h"

namespace wvm::core::testutil {

// Every logical row of the session's snapshot, in heap order: `SELECT *`
// through SnapshotSelect, so a tuple whose version the session can no
// longer read fails it with kSessionExpired.
inline Result<std::vector<Row>> SnapshotRows(const VnlTable& table,
                                             const ReaderSession& session) {
  sql::SelectStmt all;
  all.select_star = true;
  all.table = table.name();
  WVM_ASSIGN_OR_RETURN(query::QueryResult result,
                       table.SnapshotSelect(session, all));
  return std::move(result.rows);
}

}  // namespace wvm::core::testutil

#endif  // OPENWVM_TESTS_SUPPORT_SNAPSHOT_ROWS_H_
