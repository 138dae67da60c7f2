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

// Options for the §4.1 reader-query rewrite.
struct ReaderRewriteOptions {
  // Name of the placeholder carrying the reader's sessionVN; the paper
  // uses :sessionVN.
  std::string session_param = "sessionVN";
};

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
Result<sql::SelectStmt> RewriteReaderQuery(
    const sql::SelectStmt& stmt, const VersionedSchema& vschema,
    const ReaderRewriteOptions& options = {});

// Builds just the visibility predicate (exposed for tests and EXPLAIN).
sql::ExprPtr BuildVisibilityPredicate(const VersionedSchema& vschema,
                                      const std::string& session_param);

// Builds the version-extracting CASE expression for one updatable
// attribute (exposed for tests and EXPLAIN).
sql::ExprPtr BuildVersionCase(const VersionedSchema& vschema,
                              size_t logical_col,
                              const std::string& session_param);

// --- Index-routing predicate analysis (§4.3) -------------------------------

// Extracts the candidate index keys a WHERE conjunct set binds for the
// column positions in `columns`: a `col = literal-or-param` conjunct binds
// one value; an OR-of-equalities over a single column (the IN-list shape)
// binds several. The result enumerates the cartesian product of the
// per-column candidate sets, each entry a Row in `columns` order with
// values normalized through the column codec (so probing a hash index keyed
// by heap-deserialized rows is exact).
//
// DATE columns bind a DATE comparand or a string that Value::ParseDate
// accepts (the coercion CompareValues applies).
//
// Returns nullopt — caller falls back to the heap scan — when any column
// stays unbound, a binding's type cannot be matched losslessly to the
// column (doubles, bools, NULLs, over-width strings, unparseable dates,
// any other type mix), or the product exceeds `max_candidates`. Bindings
// are an access-path hint only: the caller must still evaluate every
// conjunct on the candidate rows, so a conservative nullopt is always
// safe.
std::optional<std::vector<Row>> BindIndexKeys(
    const std::vector<const sql::Expr*>& conjuncts, const Schema& schema,
    const std::vector<size_t>& columns, const query::ParamMap& params,
    size_t max_candidates = 64);

// True when `conjunct` alone is a shape BindIndexKeys binds (an equality,
// or an OR of equalities, over one column with a matching comparand). Such
// a conjunct never fails to evaluate.
bool BindsIndexColumn(const sql::Expr& conjunct, const Schema& schema,
                      const query::ParamMap& params);

}  // namespace wvm::core

#endif  // OPENWVM_CORE_REWRITER_H_
