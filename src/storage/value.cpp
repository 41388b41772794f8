#include "storage/value.h"

#include <charconv>
#include <cmath>
#include <functional>

#include "common/strings.h"

namespace squid {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt64;
    case 2:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

Result<double> Value::ToNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(AsInt64());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return Status::InvalidArgument("value is not numeric: " + ToString());
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble: {
      std::string s = StrFormat("%g", AsDouble());
      return s;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

std::string Value::ToSqlLiteral() const {
  if (type() == ValueType::kDouble) {
    const double d = AsDouble();
    // ±inf has no digits of its own: 1e999 overflows to exactly +inf when
    // parsed. NaN has no literal at all; its keyword makes the parser fail
    // loudly instead of reading an identifier ("nan") as a column.
    if (std::isinf(d)) return d > 0 ? "1e999" : "-1e999";
    if (std::isnan(d)) return "NAN";
    // Shortest text that parses back to the same double (ToString's %g
    // keeps six digits, which moves range bounds). An integral value keeps
    // a ".0" so it parses back as a double, not an int64.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    std::string out(buf, res.ptr);
    if (out.find_first_of(".en") == std::string::npos) out += ".0";
    return out;
  }
  if (type() != ValueType::kString) return ToString();
  std::string out = "'";
  for (char c : AsString()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

int Value::Compare(const Value& other) const {
  ValueType a = type(), b = other.type();
  // NULL sorts first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    if (a == b) return 0;
    return a == ValueType::kNull ? -1 : 1;
  }
  bool a_num = (a == ValueType::kInt64 || a == ValueType::kDouble);
  bool b_num = (b == ValueType::kInt64 || b == ValueType::kDouble);
  if (a_num && b_num) {
    if (a == ValueType::kInt64 && b == ValueType::kInt64) {
      int64_t x = AsInt64(), y = other.AsInt64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a == ValueType::kInt64 ? static_cast<double>(AsInt64()) : AsDouble();
    double y = b == ValueType::kInt64 ? static_cast<double>(other.AsInt64())
                                      : other.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numbers before strings
  int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      // Hash int64 via its double value so 1 and 1.0 hash identically
      // (they compare equal).
      return std::hash<double>()(static_cast<double>(AsInt64()));
    case ValueType::kDouble:
      return std::hash<double>()(AsDouble());
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

}  // namespace squid
