#include "sql/lexer.h"

#include <cctype>
#include <unordered_set>

#include "common/strings.h"

namespace squid {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "DISTINCT", "FROM", "WHERE",  "AND",   "GROUP",     "BY",
      "HAVING", "COUNT",    "AS",   "BETWEEN", "IN",    "INTERSECT", "OR",
      "NOT",    "NULL",     "LIKE", "ORDER",   "LIMIT", "NAN",
  };
  return kKeywords;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(sql[i])) ++i;
      std::string word = sql.substr(start, i - start);
      std::string upper = word;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
      if (Keywords().count(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = upper;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = word;
      }
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '-' && i + 1 < n && std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(sql[i])) || sql[i] == '.')) {
        if (sql[i] == '.') {
          if (is_float) break;  // second dot ends the number
          is_float = true;
        }
        ++i;
      }
      // Optional exponent (`2.5e-07`, `1e+20`), as doubles print.
      if (i < n && (sql[i] == 'e' || sql[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (sql[j] == '+' || sql[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) {
          while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
          i = j;
          is_float = true;
        }
      }
      tok.type = is_float ? TokenType::kFloat : TokenType::kInteger;
      tok.text = sql.substr(start, i - start);
    } else if (c == '\'') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        if (sql[i] == '\'') {
          if (i + 1 < n && sql[i + 1] == '\'') {
            text += '\'';
            i += 2;
          } else {
            ++i;
            closed = true;
            break;
          }
        } else {
          text += sql[i++];
        }
      }
      if (!closed) {
        return Status::InvalidArgument("unterminated string literal at position " +
                                       std::to_string(tok.position));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(text);
    } else {
      // Symbols, including two-character comparison operators.
      static const char* kTwoChar[] = {"<=", ">=", "!=", "<>"};
      std::string sym(1, c);
      if (i + 1 < n) {
        std::string two = sql.substr(i, 2);
        for (const char* t : kTwoChar) {
          if (two == t) {
            sym = two;
            break;
          }
        }
      }
      static const std::string kSingles = ",().*=<>";
      if (sym.size() == 1 && kSingles.find(c) == std::string::npos) {
        return Status::InvalidArgument("unexpected character '" + std::string(1, c) +
                                       "' at position " + std::to_string(i));
      }
      size_t advance = sym.size();
      if (sym == "<>") sym = "!=";  // normalize
      tok.type = TokenType::kSymbol;
      tok.text = sym;
      i += advance;
      tokens.push_back(tok);
      continue;
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace squid
