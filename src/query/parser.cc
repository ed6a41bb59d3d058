#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <vector>

namespace colt {

namespace {

/// Token kinds produced by the lexer.
enum class TokenKind {
  kIdent,    // bare identifier
  kInt,      // integer literal (possibly negative)
  kSymbol,   // one of ( ) , . ; * = < > and the two-char <= >=
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  size_t position = 0;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < sql.size()) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token token;
    token.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < sql.size() && IsIdentChar(sql[j])) ++j;
      token.kind = TokenKind::kIdent;
      token.text = sql.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < sql.size() &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i + 1;
      while (j < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[j]))) {
        ++j;
      }
      token.kind = TokenKind::kInt;
      token.text = sql.substr(i, j - i);
      i = j;
    } else if ((c == '<' || c == '>') && i + 1 < sql.size() &&
               sql[i + 1] == '=') {
      token.kind = TokenKind::kSymbol;
      token.text = sql.substr(i, 2);
      i += 2;
    } else if (std::string("(),.;*=<>").find(c) != std::string::npos) {
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      ++i;
    } else {
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' at position " +
                                     std::to_string(i));
    }
    tokens.push_back(std::move(token));
  }
  tokens.push_back(Token{TokenKind::kEnd, "", sql.size()});
  return tokens;
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Recursive-descent parser over the token stream.
class ParserImpl {
 public:
  ParserImpl(const Catalog* catalog, std::vector<Token> tokens)
      : catalog_(catalog), tokens_(std::move(tokens)) {}

  Result<Query> ParseStatement() {
    Result<Query> parsed = [&]() -> Result<Query> {
      if (PeekKeyword("insert")) return ParseInsert();
      if (PeekKeyword("update")) return ParseUpdate();
      if (PeekKeyword("delete")) return ParseDelete();
      return ParseSelect();
    }();
    COLT_RETURN_IF_ERROR(parsed.status());
    if (PeekSymbol(";")) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return UnexpectedToken("end of statement");
    }
    COLT_RETURN_IF_ERROR(parsed->Validate(*catalog_));
    return parsed;
  }

 private:
  Result<Query> ParseSelect() {
    COLT_RETURN_IF_ERROR(ExpectKeyword("select"));
    COLT_RETURN_IF_ERROR(ExpectKeyword("count"));
    COLT_RETURN_IF_ERROR(ExpectSymbol("("));
    COLT_RETURN_IF_ERROR(ExpectSymbol("*"));
    COLT_RETURN_IF_ERROR(ExpectSymbol(")"));
    COLT_RETURN_IF_ERROR(ExpectKeyword("from"));

    std::vector<TableId> tables;
    COLT_RETURN_IF_ERROR(ParseTableList(&tables));

    std::vector<JoinPredicate> joins;
    std::vector<SelectionPredicate> selections;
    COLT_RETURN_IF_ERROR(ParseWhere(tables, &joins, &selections));
    return Query(std::move(tables), std::move(joins), std::move(selections));
  }

  /// `INSERT INTO <table> ROWS <int>` — batch-append synthesized tuples.
  Result<Query> ParseInsert() {
    COLT_RETURN_IF_ERROR(ExpectKeyword("insert"));
    COLT_RETURN_IF_ERROR(ExpectKeyword("into"));
    COLT_ASSIGN_OR_RETURN(const TableId table, ExpectTable());
    COLT_RETURN_IF_ERROR(ExpectKeyword("rows"));
    COLT_ASSIGN_OR_RETURN(const int64_t rows, ExpectInt());
    return Query::MakeInsert(table, rows);
  }

  /// `UPDATE <table> SET col = int [, col = int]* [WHERE ...]`.
  Result<Query> ParseUpdate() {
    COLT_RETURN_IF_ERROR(ExpectKeyword("update"));
    COLT_ASSIGN_OR_RETURN(const TableId table, ExpectTable());
    COLT_RETURN_IF_ERROR(ExpectKeyword("set"));
    std::vector<SetClause> sets;
    for (;;) {
      COLT_ASSIGN_OR_RETURN(const std::string column_name, ExpectIdent());
      const ColumnId column = catalog_->table(table).FindColumn(column_name);
      if (column == kInvalidColumnId) {
        return Status::NotFound("unknown column '" + column_name + "'");
      }
      // MakeUpdate sorts the SET list, so a repeated column would keep
      // whichever value sorts last rather than the one written last.
      for (const SetClause& earlier : sets) {
        if (earlier.column == column) {
          return Status::InvalidArgument("column '" + column_name +
                                         "' is assigned twice");
        }
      }
      COLT_RETURN_IF_ERROR(ExpectSymbol("="));
      COLT_ASSIGN_OR_RETURN(const int64_t value, ExpectInt());
      sets.push_back(SetClause{column, value});
      if (!PeekSymbol(",")) break;
      Advance();
    }
    std::vector<TableId> tables{table};
    std::vector<JoinPredicate> joins;
    std::vector<SelectionPredicate> selections;
    COLT_RETURN_IF_ERROR(ParseWhere(tables, &joins, &selections));
    if (!joins.empty()) {
      return Status::InvalidArgument("UPDATE cannot join");
    }
    return Query::MakeUpdate(table, std::move(sets), std::move(selections));
  }

  /// `DELETE FROM <table> [WHERE ...]`.
  Result<Query> ParseDelete() {
    COLT_RETURN_IF_ERROR(ExpectKeyword("delete"));
    COLT_RETURN_IF_ERROR(ExpectKeyword("from"));
    COLT_ASSIGN_OR_RETURN(const TableId table, ExpectTable());
    std::vector<TableId> tables{table};
    std::vector<JoinPredicate> joins;
    std::vector<SelectionPredicate> selections;
    COLT_RETURN_IF_ERROR(ParseWhere(tables, &joins, &selections));
    if (!joins.empty()) {
      return Status::InvalidArgument("DELETE cannot join");
    }
    return Query::MakeDelete(table, std::move(selections));
  }

  Status ParseWhere(const std::vector<TableId>& tables,
                    std::vector<JoinPredicate>* joins,
                    std::vector<SelectionPredicate>* selections) {
    if (!PeekKeyword("where")) return Status::OK();
    Advance();
    COLT_RETURN_IF_ERROR(ParseCondition(tables, joins, selections));
    while (PeekKeyword("and")) {
      Advance();
      COLT_RETURN_IF_ERROR(ParseCondition(tables, joins, selections));
    }
    return Status::OK();
  }

  Result<TableId> ExpectTable() {
    COLT_ASSIGN_OR_RETURN(const std::string name, ExpectIdent());
    const TableId id = catalog_->FindTable(name);
    if (id == kInvalidTableId) {
      return Status::NotFound("unknown table '" + name + "'");
    }
    return id;
  }

  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() { ++pos_; }

  bool PeekKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdent && Lower(Peek().text) == kw;
  }
  bool PeekSymbol(const std::string& sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }

  Status UnexpectedToken(const std::string& expected) const {
    const std::string got =
        Peek().kind == TokenKind::kEnd ? "end of input" : "'" + Peek().text + "'";
    return Status::InvalidArgument("expected " + expected + " but found " +
                                   got + " at position " +
                                   std::to_string(Peek().position));
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return UnexpectedToken("'" + kw + "'");
    Advance();
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!PeekSymbol(sym)) return UnexpectedToken("'" + sym + "'");
    Advance();
    return Status::OK();
  }

  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return UnexpectedToken("identifier");
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  Result<int64_t> ExpectInt() {
    if (Peek().kind != TokenKind::kInt) return UnexpectedToken("integer");
    errno = 0;
    const int64_t value = std::strtoll(Peek().text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      return Status::InvalidArgument("integer literal '" + Peek().text +
                                     "' is out of range");
    }
    Advance();
    return value;
  }

  Status ParseTableList(std::vector<TableId>* tables) {
    for (;;) {
      COLT_ASSIGN_OR_RETURN(const std::string name, ExpectIdent());
      const TableId id = catalog_->FindTable(name);
      if (id == kInvalidTableId) {
        return Status::NotFound("unknown table '" + name + "'");
      }
      // Queries have no aliases, so a repeated table cannot be a self-join.
      if (std::find(tables->begin(), tables->end(), id) != tables->end()) {
        return Status::InvalidArgument("table '" + name +
                                       "' appears twice in the FROM list");
      }
      tables->push_back(id);
      if (!PeekSymbol(",")) break;
      Advance();
    }
    return Status::OK();
  }

  /// Parses `table.column`, checking both against the catalog and the
  /// query's FROM list.
  Result<ColumnRef> ParseColumnRef(const std::vector<TableId>& tables) {
    COLT_ASSIGN_OR_RETURN(const std::string table_name, ExpectIdent());
    const TableId table = catalog_->FindTable(table_name);
    if (table == kInvalidTableId) {
      return Status::NotFound("unknown table '" + table_name + "'");
    }
    if (std::find(tables.begin(), tables.end(), table) == tables.end()) {
      return Status::InvalidArgument("table '" + table_name +
                                     "' is not in the FROM list");
    }
    COLT_RETURN_IF_ERROR(ExpectSymbol("."));
    COLT_ASSIGN_OR_RETURN(const std::string column_name, ExpectIdent());
    const ColumnId column = catalog_->table(table).FindColumn(column_name);
    if (column == kInvalidColumnId) {
      return Status::NotFound("unknown column '" + table_name + "." +
                              column_name + "'");
    }
    return ColumnRef{table, column};
  }

  Status ParseCondition(const std::vector<TableId>& tables,
                        std::vector<JoinPredicate>* joins,
                        std::vector<SelectionPredicate>* selections) {
    COLT_ASSIGN_OR_RETURN(const ColumnRef lhs, ParseColumnRef(tables));
    if (PeekKeyword("between")) {
      Advance();
      COLT_ASSIGN_OR_RETURN(const int64_t lo, ExpectInt());
      COLT_RETURN_IF_ERROR(ExpectKeyword("and"));
      COLT_ASSIGN_OR_RETURN(const int64_t hi, ExpectInt());
      if (lo > hi) {
        return Status::InvalidArgument("empty BETWEEN range");
      }
      selections->push_back(SelectionPredicate{lhs, lo, hi});
      return Status::OK();
    }
    if (Peek().kind != TokenKind::kSymbol) {
      return UnexpectedToken("comparison operator");
    }
    const std::string op = Peek().text;
    if (op != "=" && op != "<" && op != "<=" && op != ">" && op != ">=") {
      return UnexpectedToken("comparison operator");
    }
    Advance();
    if (op == "=" && Peek().kind == TokenKind::kIdent) {
      // Equi-join: table.col = table.col.
      COLT_ASSIGN_OR_RETURN(const ColumnRef rhs, ParseColumnRef(tables));
      joins->push_back(JoinPredicate{lhs, rhs});
      return Status::OK();
    }
    COLT_ASSIGN_OR_RETURN(const int64_t value, ExpectInt());
    SelectionPredicate pred;
    pred.column = lhs;
    if (op == "=") {
      pred.lo = pred.hi = value;
    } else if (op == "<") {
      if (value == INT64_MIN) {
        return Status::InvalidArgument("empty '<' range");
      }
      pred.lo = INT64_MIN;
      pred.hi = value - 1;
    } else if (op == "<=") {
      pred.lo = INT64_MIN;
      pred.hi = value;
    } else if (op == ">") {
      if (value == INT64_MAX) {
        return Status::InvalidArgument("empty '>' range");
      }
      pred.lo = value + 1;
      pred.hi = INT64_MAX;
    } else {  // >=
      pred.lo = value;
      pred.hi = INT64_MAX;
    }
    selections->push_back(pred);
    return Status::OK();
  }

  const Catalog* catalog_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> QueryParser::Parse(const std::string& sql) const {
  COLT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  ParserImpl parser(catalog_, std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace colt
