#ifndef OPENWVM_CATALOG_VALUE_H_
#define OPENWVM_CATALOG_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace wvm {

// Column types supported by the engine. Widths follow the paper's Figure 3
// conventions: DATE is a 4-byte packed value, strings have a declared width.
enum class TypeId : uint8_t {
  kBool = 0,
  kInt32,
  kInt64,
  kDouble,
  kDate,    // packed yyyy*10000 + mm*100 + dd in an int32
  kString,
};

const char* TypeIdToString(TypeId type);

// Fixed storage width in bytes for non-string types.
size_t FixedTypeWidth(TypeId type);

// A dynamically typed SQL value with NULL support. Values are small and
// cheap to copy (strings aside) and are the currency of the query layer.
class Value {
 public:
  // Default-constructed value is NULL of type kInt64 (arbitrary).
  Value() : type_(TypeId::kInt64), is_null_(true) {}

  static Value Null(TypeId type) {
    Value v;
    v.type_ = type;
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.is_null_ = false;
    v.i64_ = b ? 1 : 0;
    return v;
  }
  static Value Int32(int32_t i) {
    Value v;
    v.type_ = TypeId::kInt32;
    v.is_null_ = false;
    v.i64_ = i;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.is_null_ = false;
    v.i64_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.is_null_ = false;
    v.dbl_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.is_null_ = false;
    v.str_ = std::move(s);
    return v;
  }
  // Packed date from components; year is the full year (e.g. 1996).
  static Value Date(int year, int month, int day) {
    Value v;
    v.type_ = TypeId::kDate;
    v.is_null_ = false;
    v.i64_ = year * 10000 + month * 100 + day;
    return v;
  }
  // Parses "MM/DD/YY" (two-digit years map to 19YY) or "MM/DD/YYYY".
  static Result<Value> ParseDate(const std::string& text);

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool AsBool() const { return i64_ != 0; }
  int32_t AsInt32() const { return static_cast<int32_t>(i64_); }
  int64_t AsInt64() const { return i64_; }
  double AsDouble() const {
    return type_ == TypeId::kDouble ? dbl_ : static_cast<double>(i64_);
  }
  const std::string& AsString() const { return str_; }
  int32_t AsDateRaw() const { return static_cast<int32_t>(i64_); }

  bool IsNumeric() const {
    return type_ == TypeId::kInt32 || type_ == TypeId::kInt64 ||
           type_ == TypeId::kDouble;
  }

  // SQL-style rendering ("null" for NULLs, "MM/DD/YY" for dates).
  std::string ToString() const;

  // Structural equality: NULL == NULL here (used for key maps, not SQL
  // three-valued logic; the expression evaluator handles SQL NULL rules).
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  // Total order for sorting; NULLs sort first, cross-numeric compares by
  // double value. Comparing incompatible types is a programmer error.
  bool operator<(const Value& other) const;

  size_t Hash() const;

 private:
  TypeId type_;
  bool is_null_;
  int64_t i64_ = 0;   // bool/int32/int64/date payload
  double dbl_ = 0.0;  // double payload
  std::string str_;   // string payload
};

// Row = tuple of values, positionally matching a Schema.
using Row = std::vector<Value>;

std::string RowToString(const Row& row);

// SQL arithmetic on numeric values. NULL operands yield NULL.
// Mixing int and double widens to double; two INT32s give INT32, any other
// integer mix INT64. An integer result outside that type, and division by
// zero, are InvalidArgument.
Result<Value> ValueAdd(const Value& a, const Value& b);
Result<Value> ValueSub(const Value& a, const Value& b);
Result<Value> ValueMul(const Value& a, const Value& b);
Result<Value> ValueDiv(const Value& a, const Value& b);
// Unary minus, with the same NULL and overflow rules.
Result<Value> ValueNegate(const Value& v);

// Hash/eq functors so Row can key unordered_map (the baseline engines'
// indexes and the warehouse's delta folding; 2VNL indexes and GROUP BY
// key on KeyCodec bytes).
struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

}  // namespace wvm

#endif  // OPENWVM_CATALOG_VALUE_H_
