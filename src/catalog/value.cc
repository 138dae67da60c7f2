#include "catalog/value.h"

#include <cstdio>
#include <functional>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm {

const char* TypeIdToString(TypeId type) {
  switch (type) {
    case TypeId::kBool:   return "BOOL";
    case TypeId::kInt32:  return "INT32";
    case TypeId::kInt64:  return "INT64";
    case TypeId::kDouble: return "DOUBLE";
    case TypeId::kDate:   return "DATE";
    case TypeId::kString: return "STRING";
  }
  return "UNKNOWN";
}

size_t FixedTypeWidth(TypeId type) {
  switch (type) {
    case TypeId::kBool:   return 1;
    case TypeId::kInt32:  return 4;
    case TypeId::kInt64:  return 8;
    case TypeId::kDouble: return 8;
    case TypeId::kDate:   return 4;
    case TypeId::kString: return 0;  // declared per column
  }
  return 0;
}

Result<Value> Value::ParseDate(const std::string& text) {
  int m = 0, d = 0, y = 0;
  if (std::sscanf(text.c_str(), "%d/%d/%d", &m, &d, &y) != 3) {
    return Status::InvalidArgument("bad date literal: " + text);
  }
  if (m < 1 || m > 12 || d < 1 || d > 31 || y < 0) {
    return Status::InvalidArgument("date out of range: " + text);
  }
  if (y < 100) y += 1900;
  return Value::Date(y, m, d);
}

std::string Value::ToString() const {
  if (is_null_) return "null";
  switch (type_) {
    case TypeId::kBool:
      return i64_ ? "true" : "false";
    case TypeId::kInt32:
    case TypeId::kInt64:
      return std::to_string(i64_);
    case TypeId::kDouble: {
      // Render integral doubles without a trailing ".000000".
      if (dbl_ == static_cast<double>(static_cast<int64_t>(dbl_))) {
        return std::to_string(static_cast<int64_t>(dbl_));
      }
      return StrPrintf("%g", dbl_);
    }
    case TypeId::kDate: {
      const int32_t packed = static_cast<int32_t>(i64_);
      return StrPrintf("%02d/%02d/%02d", (packed / 100) % 100, packed % 100,
                       (packed / 10000) % 100);
    }
    case TypeId::kString:
      return str_;
  }
  return "?";
}

bool Value::operator==(const Value& other) const {
  if (is_null_ || other.is_null_) return is_null_ && other.is_null_;
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    return i64_ == other.i64_;
  }
  if (type_ != other.type_) return false;
  if (type_ == TypeId::kString) return str_ == other.str_;
  return i64_ == other.i64_;
}

bool Value::operator<(const Value& other) const {
  // NULLs sort before non-NULLs.
  if (is_null_ || other.is_null_) return is_null_ && !other.is_null_;
  if (IsNumeric() && other.IsNumeric()) {
    if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
      return AsDouble() < other.AsDouble();
    }
    return i64_ < other.i64_;
  }
  WVM_CHECK_MSG(type_ == other.type_, "comparing incompatible value types");
  if (type_ == TypeId::kString) return str_ < other.str_;
  return i64_ < other.i64_;
}

size_t Value::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case TypeId::kString:
      return std::hash<std::string>()(str_);
    case TypeId::kDouble:
      // operator== compares across numeric types, so a double equal to an
      // integer must hash as that integer (hash-grouped keys rely on it).
      if (dbl_ >= -0x1p63 && dbl_ < 0x1p63 &&
          dbl_ == static_cast<double>(static_cast<int64_t>(dbl_))) {
        return std::hash<int64_t>()(static_cast<int64_t>(dbl_));
      }
      return std::hash<double>()(dbl_);
    default:
      return std::hash<int64_t>()(i64_);
  }
}

std::string RowToString(const Row& row) {
  std::vector<std::string> parts;
  parts.reserve(row.size());
  for (const Value& v : row) parts.push_back(v.ToString());
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  return out;
}

namespace {

enum class ArithOp { kAdd, kSub, kMul, kDiv };

Result<Value> Arith(const Value& a, const Value& b, ArithOp op) {
  if (a.is_null() || b.is_null()) {
    return Value::Null(a.is_null() ? b.type() : a.type());
  }
  if (!a.IsNumeric() || !b.IsNumeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  if (op == ArithOp::kDiv && b.AsDouble() == 0.0) {
    return Status::InvalidArgument("division by zero");
  }
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return Value::Double(op == ArithOp::kAdd   ? x + y
                         : op == ArithOp::kSub ? x - y
                         : op == ArithOp::kMul ? x * y
                                               : x / y);
  }
  // Integers are checked, never wrapped: a result outside the operands'
  // type (INT32 when both are INT32, else INT64) is an error.
  const int64_t x = a.AsInt64(), y = b.AsInt64();
  int64_t r = 0;
  bool overflow;
  switch (op) {
    case ArithOp::kAdd: overflow = __builtin_add_overflow(x, y, &r); break;
    case ArithOp::kSub: overflow = __builtin_sub_overflow(x, y, &r); break;
    case ArithOp::kMul: overflow = __builtin_mul_overflow(x, y, &r); break;
    default:
      overflow = x == std::numeric_limits<int64_t>::min() && y == -1;
      if (!overflow) r = x / y;
  }
  if (a.type() == TypeId::kInt32 && b.type() == TypeId::kInt32) {
    overflow = overflow || r != static_cast<int32_t>(r);
    if (!overflow) return Value::Int32(static_cast<int32_t>(r));
  }
  if (overflow) return Status::InvalidArgument("integer overflow");
  return Value::Int64(r);
}

}  // namespace

Result<Value> ValueAdd(const Value& a, const Value& b) {
  return Arith(a, b, ArithOp::kAdd);
}
Result<Value> ValueSub(const Value& a, const Value& b) {
  return Arith(a, b, ArithOp::kSub);
}
Result<Value> ValueMul(const Value& a, const Value& b) {
  return Arith(a, b, ArithOp::kMul);
}
Result<Value> ValueDiv(const Value& a, const Value& b) {
  return Arith(a, b, ArithOp::kDiv);
}

Result<Value> ValueNegate(const Value& v) {
  if (v.is_null()) return v;
  if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
  if (v.type() != TypeId::kInt32 && v.type() != TypeId::kInt64) {
    return Status::InvalidArgument("negation of non-numeric value");
  }
  return ValueSub(v.type() == TypeId::kInt32 ? Value::Int32(0)
                                             : Value::Int64(0),
                  v);
}

}  // namespace wvm
