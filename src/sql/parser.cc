#include "sql/parser.h"

#include <cerrno>
#include <cstdlib>

#include "common/strings.h"
#include "sql/lexer.h"

namespace wvm::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (Peek().IsKeyword("SELECT")) {
      stmt.kind = StatementKind::kSelect;
      WVM_ASSIGN_OR_RETURN(SelectStmt s, ParseSelectStmt());
      stmt.select = std::make_unique<SelectStmt>(std::move(s));
    } else if (Peek().IsKeyword("INSERT")) {
      stmt.kind = StatementKind::kInsert;
      WVM_ASSIGN_OR_RETURN(InsertStmt s, ParseInsertStmt());
      stmt.insert = std::make_unique<InsertStmt>(std::move(s));
    } else if (Peek().IsKeyword("UPDATE")) {
      stmt.kind = StatementKind::kUpdate;
      WVM_ASSIGN_OR_RETURN(UpdateStmt s, ParseUpdateStmt());
      stmt.update = std::make_unique<UpdateStmt>(std::move(s));
    } else if (Peek().IsKeyword("DELETE")) {
      stmt.kind = StatementKind::kDelete;
      WVM_ASSIGN_OR_RETURN(DeleteStmt s, ParseDeleteStmt());
      stmt.del = std::make_unique<DeleteStmt>(std::move(s));
    } else {
      return Err("expected SELECT, INSERT, UPDATE, or DELETE");
    }
    if (Peek().IsSymbol(";")) Advance();
    if (Peek().type != TokenType::kEnd) {
      return Err("trailing input after statement");
    }
    return stmt;
  }

  Result<ExprPtr> ParseBareExpression() {
    WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().type != TokenType::kEnd) {
      return Err("trailing input after expression");
    }
    return e;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Err(const std::string& what) const {
    return Status::InvalidArgument(StrPrintf(
        "parse error near offset %zu ('%s'): %s", Peek().offset,
        Peek().text.c_str(), what.c_str()));
  }

  Status ExpectKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) return Err(StrPrintf("expected %s", kw));
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(const char* sym) {
    if (!Peek().IsSymbol(sym)) return Err(StrPrintf("expected '%s'", sym));
    Advance();
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (Peek().type != TokenType::kIdent) return Err("expected identifier");
    return Advance().text;
  }

  Result<SelectStmt> ParseSelectStmt() {
    WVM_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SelectStmt stmt;
    if (Peek().IsSymbol("*")) {
      Advance();
      stmt.select_star = true;
    } else {
      for (;;) {
        SelectItem item;
        WVM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Peek().IsKeyword("AS")) {
          Advance();
          WVM_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
        }
        stmt.items.push_back(std::move(item));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }
    WVM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    WVM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      WVM_RETURN_IF_ERROR(ExpectKeyword("BY"));
      for (;;) {
        WVM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.group_by.push_back(std::move(col));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
    }
    return stmt;
  }

  Result<InsertStmt> ParseInsertStmt() {
    WVM_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    WVM_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    InsertStmt stmt;
    WVM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (Peek().IsSymbol("(")) {
      Advance();
      for (;;) {
        WVM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        stmt.columns.push_back(std::move(col));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      WVM_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    WVM_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    for (;;) {
      WVM_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<ExprPtr> row;
      for (;;) {
        WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
        if (!Peek().IsSymbol(",")) break;
        Advance();
      }
      WVM_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt.rows.push_back(std::move(row));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    return stmt;
  }

  Result<UpdateStmt> ParseUpdateStmt() {
    WVM_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
    UpdateStmt stmt;
    WVM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    WVM_RETURN_IF_ERROR(ExpectKeyword("SET"));
    for (;;) {
      WVM_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      WVM_RETURN_IF_ERROR(ExpectSymbol("="));
      WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt.sets.emplace_back(std::move(col), std::move(e));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  Result<DeleteStmt> ParseDeleteStmt() {
    WVM_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    WVM_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    DeleteStmt stmt;
    WVM_ASSIGN_OR_RETURN(stmt.table, ExpectIdent());
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    return stmt;
  }

  // ------------------------------------------------------- expressions

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    WVM_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (Peek().IsKeyword("OR")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Binary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    WVM_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Binary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("NOT")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Unary(UnaryOp::kNot, std::move(e));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    WVM_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    if (Peek().IsKeyword("IS")) {
      Advance();
      bool negated = false;
      if (Peek().IsKeyword("NOT")) {
        Advance();
        negated = true;
      }
      WVM_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      return IsNull(std::move(left), negated);
    }
    struct OpMap {
      const char* sym;
      BinaryOp op;
    };
    static constexpr OpMap kOps[] = {
        {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe}, {"<>", BinaryOp::kNe},
        {"=", BinaryOp::kEq},  {"<", BinaryOp::kLt},  {">", BinaryOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (Peek().IsSymbol(m.sym)) {
        Advance();
        WVM_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Binary(m.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    WVM_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("+")) {
        op = BinaryOp::kAdd;
      } else if (Peek().IsSymbol("-")) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Binary(op, std::move(left), std::move(right));
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    WVM_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    for (;;) {
      BinaryOp op;
      if (Peek().IsSymbol("*")) {
        op = BinaryOp::kMul;
      } else if (Peek().IsSymbol("/")) {
        op = BinaryOp::kDiv;
      } else {
        return left;
      }
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = Binary(op, std::move(left), std::move(right));
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().IsSymbol("-")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Unary(UnaryOp::kNeg, std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParseCase() {
    // "CASE" already consumed by caller.
    std::vector<CaseWhen> whens;
    while (Peek().IsKeyword("WHEN")) {
      Advance();
      CaseWhen w;
      WVM_ASSIGN_OR_RETURN(w.condition, ParseExpr());
      WVM_RETURN_IF_ERROR(ExpectKeyword("THEN"));
      WVM_ASSIGN_OR_RETURN(w.result, ParseExpr());
      whens.push_back(std::move(w));
    }
    if (whens.empty()) return Err("CASE requires at least one WHEN");
    ExprPtr else_expr;
    if (Peek().IsKeyword("ELSE")) {
      Advance();
      WVM_ASSIGN_OR_RETURN(else_expr, ParseExpr());
    }
    WVM_RETURN_IF_ERROR(ExpectKeyword("END"));
    return Case(std::move(whens), std::move(else_expr));
  }

  Result<ExprPtr> ParseAggCall(AggFunc f) {
    // Function name already consumed.
    WVM_RETURN_IF_ERROR(ExpectSymbol("("));
    if (f == AggFunc::kCount && Peek().IsSymbol("*")) {
      Advance();
      WVM_RETURN_IF_ERROR(ExpectSymbol(")"));
      return CountStar();
    }
    WVM_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
    WVM_RETURN_IF_ERROR(ExpectSymbol(")"));
    return Agg(f, std::move(arg));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInt: {
        // A minus sign is a separate unary operator, so the literal itself
        // must fit: -9223372036854775808 is out of range too.
        errno = 0;
        const long long v = std::strtoll(tok.text.c_str(), nullptr, 10);
        if (errno == ERANGE) return Err("integer literal out of range");
        Advance();
        return Lit(Value::Int64(v));
      }
      case TokenType::kDouble: {
        Advance();
        return Lit(Value::Double(std::strtod(tok.text.c_str(), nullptr)));
      }
      case TokenType::kString: {
        Advance();
        return Lit(Value::String(tok.text));
      }
      case TokenType::kParam: {
        Advance();
        return Param(tok.text);
      }
      case TokenType::kSymbol: {
        if (tok.IsSymbol("(")) {
          Advance();
          WVM_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
          WVM_RETURN_IF_ERROR(ExpectSymbol(")"));
          return e;
        }
        return Err("unexpected symbol in expression");
      }
      case TokenType::kIdent: {
        if (tok.IsKeyword("CASE")) {
          Advance();
          return ParseCase();
        }
        if (tok.IsKeyword("NULL")) {
          Advance();
          return Lit(Value::Null(TypeId::kInt64));
        }
        if (tok.IsKeyword("TRUE")) {
          Advance();
          return Lit(Value::Bool(true));
        }
        if (tok.IsKeyword("FALSE")) {
          Advance();
          return Lit(Value::Bool(false));
        }
        static constexpr struct {
          const char* name;
          AggFunc f;
        } kAggs[] = {{"SUM", AggFunc::kSum},
                     {"COUNT", AggFunc::kCount},
                     {"AVG", AggFunc::kAvg},
                     {"MIN", AggFunc::kMin},
                     {"MAX", AggFunc::kMax}};
        for (const auto& a : kAggs) {
          if (tok.IsKeyword(a.name) && Peek(1).IsSymbol("(")) {
            Advance();
            return ParseAggCall(a.f);
          }
        }
        Advance();
        return Col(tok.text);
      }
      case TokenType::kEnd:
        return Err("unexpected end of input in expression");
    }
    return Err("unexpected token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> Parse(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SelectStmt> ParseSelect(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (stmt.kind != StatementKind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  return std::move(*stmt.select);
}

Result<InsertStmt> ParseInsert(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (stmt.kind != StatementKind::kInsert) {
    return Status::InvalidArgument("expected an INSERT statement");
  }
  return std::move(*stmt.insert);
}

Result<UpdateStmt> ParseUpdate(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (stmt.kind != StatementKind::kUpdate) {
    return Status::InvalidArgument("expected an UPDATE statement");
  }
  return std::move(*stmt.update);
}

Result<DeleteStmt> ParseDelete(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(Statement stmt, Parse(input));
  if (stmt.kind != StatementKind::kDelete) {
    return Status::InvalidArgument("expected a DELETE statement");
  }
  return std::move(*stmt.del);
}

Result<ExprPtr> ParseExpression(const std::string& input) {
  WVM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseBareExpression();
}

}  // namespace wvm::sql
