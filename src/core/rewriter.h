#ifndef OPENWVM_CORE_REWRITER_H_
#define OPENWVM_CORE_REWRITER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/versioned_schema.h"
#include "query/eval.h"
#include "sql/ast.h"

namespace wvm::core {

// Name of the placeholder carrying the reader's sessionVN in rewritten
// queries (the paper's :sessionVN).
inline constexpr const char* kSessionVnParam = "sessionVN";

// Rewrites a reader SELECT posed against the *logical* schema into an
// equivalent SELECT against the *widened physical* schema (§4.1):
//
//  * every reference to an updatable attribute A becomes
//      CASE WHEN :sessionVN >= tupleVN THEN A ELSE pre_A END
//  * a visibility condition is ANDed into the WHERE clause:
//      (:sessionVN >= tupleVN AND operation <> 'delete') OR
//      (:sessionVN < tupleVN AND operation <> 'insert')
//
// For n > 2 the rewrite generalizes (our extension; the paper sketches
// only the n = 2 SQL): the CASE cascades through the version slots and the
// visibility condition gains one disjunct per slot.
//
// As the paper notes, the rewritten query alone cannot detect expiration
// (§3.2 case 3 would need an exception); callers must also run the global
// check (SessionManager::CheckNotExpired). Under that check the rewrite
// is exact — property-tested against the native engine path.
Result<sql::SelectStmt> RewriteReaderQuery(const sql::SelectStmt& stmt,
                                           const VersionedSchema& vschema);

// Builds just the visibility predicate (exposed for tests and EXPLAIN).
sql::ExprPtr BuildVisibilityPredicate(const VersionedSchema& vschema);

// Builds the version-extracting CASE expression for one updatable
// attribute (exposed for tests and EXPLAIN).
sql::ExprPtr BuildVersionCase(const VersionedSchema& vschema,
                              size_t logical_col);

// --- Index-routing predicate analysis (§4.3) -------------------------------

// Extracts the candidate keys that bound WHERE conjuncts carry for the
// columns of `index`: each conjunct's key_column() and key_values() (one
// value for `col = constant`, several for the IN-list OR). The result
// enumerates the cartesian product of the per-column candidate sets, each
// entry encoded by `index` into the key bytes a stored tuple with those
// values carries, duplicates dropped; the first conjunct carrying keys for
// a column wins. A comparand its column cannot hold (an INT64 beyond an
// INT32 column's range) equals no stored value, so its keys are dropped.
//
// Returns nullopt — caller falls back to the heap scan — when any column
// stays unbound or the product exceeds `max_candidates`. Bindings are an
// access-path hint only: the caller must still evaluate every conjunct on
// the candidate rows, so a conservative nullopt is always safe.
std::optional<std::vector<std::string>> BindIndexKeys(
    const std::vector<query::BoundExpr>& conjuncts, const KeyCodec& index,
    size_t max_candidates = 64);

}  // namespace wvm::core

#endif  // OPENWVM_CORE_REWRITER_H_
