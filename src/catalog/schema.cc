#include "catalog/schema.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"

namespace wvm {

Schema::Schema(std::vector<Column> columns, std::vector<size_t> key_indices)
    : columns_(std::move(columns)), key_indices_(std::move(key_indices)) {
  for (Column& c : columns_) {
    if (c.type != TypeId::kString) {
      c.width = static_cast<uint16_t>(FixedTypeWidth(c.type));
    } else {
      WVM_CHECK_MSG(c.width > 0, "string column needs a declared width");
    }
  }
  for (size_t k : key_indices_) {
    WVM_CHECK_MSG(k < columns_.size(), "key index out of range");
  }
  offsets_.reserve(columns_.size());
  size_t off = NullBitmapBytes();
  for (const Column& c : columns_) {
    offsets_.push_back(off);
    off += c.width;
  }
  row_bytes_ = off;
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCaseAscii(columns_[i].name, name)) return i;
  }
  return Status::NotFound("no column named '" + name + "'");
}

bool Schema::Contains(const std::string& name) const {
  return IndexOf(name).ok();
}

std::vector<size_t> Schema::UpdatableIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].updatable) out.push_back(i);
  }
  return out;
}

size_t Schema::AttributeBytes() const {
  size_t total = 0;
  for (const Column& c : columns_) total += c.width;
  return total;
}

Row Schema::KeyOf(const Row& row) const {
  Row key;
  key.reserve(key_indices_.size());
  for (size_t k : key_indices_) key.push_back(row[k]);
  return key;
}

Status Schema::AddSecondaryIndex(
    std::string index_name, const std::vector<std::string>& column_names) {
  if (column_names.empty()) {
    return Status::InvalidArgument("secondary index needs at least one column");
  }
  for (const SecondaryIndexSpec& spec : secondary_indexes_) {
    if (EqualsIgnoreCaseAscii(spec.name, index_name)) {
      return Status::AlreadyExists("secondary index '" + index_name +
                                   "' already declared");
    }
  }
  SecondaryIndexSpec spec;
  spec.name = std::move(index_name);
  for (const std::string& name : column_names) {
    WVM_ASSIGN_OR_RETURN(size_t idx, IndexOf(name));
    if (columns_[idx].updatable) {
      // §4.3: only non-updatable attributes keep the index maintenance-free
      // under in-place version updates.
      return Status::InvalidArgument(
          "secondary index over updatable column '" + name +
          "' would require maintenance on every version update (§4.3)");
    }
    spec.column_indices.push_back(idx);
  }
  secondary_indexes_.push_back(std::move(spec));
  return Status::OK();
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(StrPrintf(
        "row has %zu values, schema has %zu columns", row.size(),
        columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    WVM_RETURN_IF_ERROR(CheckColumnValue(columns_[i], row[i]));
  }
  return Status::OK();
}

Status CheckColumnValue(const Column& col, const Value& v) {
  if (v.is_null() || v.type() == col.type) return Status::OK();
  if (col.type == TypeId::kInt32 && v.type() == TypeId::kInt64) {
    if (v.AsInt64() == static_cast<int32_t>(v.AsInt64())) return Status::OK();
    return Status::InvalidArgument(StrPrintf(
        "value %lld out of range for INT32 column '%s'",
        static_cast<long long>(v.AsInt64()), col.name.c_str()));
  }
  if ((col.type == TypeId::kInt64 && v.type() == TypeId::kInt32) ||
      (col.type == TypeId::kDouble && v.IsNumeric())) {
    return Status::OK();
  }
  return Status::InvalidArgument(StrPrintf(
      "cannot store %s value into column '%s' of type %s",
      TypeIdToString(v.type()), col.name.c_str(), TypeIdToString(col.type)));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& c = columns_[i];
    std::string s = c.name + " " + TypeIdToString(c.type);
    if (c.type == TypeId::kString) s += StrPrintf("(%u)", c.width);
    if (c.updatable) s += " UPDATABLE";
    parts.push_back(std::move(s));
  }
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  if (!key_indices_.empty()) {
    std::vector<std::string> keys;
    for (size_t k : key_indices_) keys.push_back(columns_[k].name);
    out += " KEY(" + Join(keys, ", ") + ")";
  }
  return out;
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  if (key_indices_ != other.key_indices_) return false;
  if (secondary_indexes_.size() != other.secondary_indexes_.size()) {
    return false;
  }
  for (size_t i = 0; i < secondary_indexes_.size(); ++i) {
    if (secondary_indexes_[i].name != other.secondary_indexes_[i].name ||
        secondary_indexes_[i].column_indices !=
            other.secondary_indexes_[i].column_indices) {
      return false;
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& a = columns_[i];
    const Column& b = other.columns_[i];
    if (a.name != b.name || a.type != b.type || a.width != b.width ||
        a.updatable != b.updatable) {
      return false;
    }
  }
  return true;
}

namespace {

void EncodeValue(const Column& col, const Value& v, uint8_t* slot) {
  switch (col.type) {
    case TypeId::kBool: {
      slot[0] = v.AsBool() ? 1 : 0;
      break;
    }
    case TypeId::kInt32:
    case TypeId::kDate: {
      const int32_t x = col.type == TypeId::kDate ? v.AsDateRaw()
                                                  : v.AsInt32();
      std::memcpy(slot, &x, 4);
      break;
    }
    case TypeId::kInt64: {
      const int64_t x = v.AsInt64();
      std::memcpy(slot, &x, 8);
      break;
    }
    case TypeId::kDouble: {
      // One encoding per value: -0.0 == +0.0, and every NaN is one key.
      double x = v.AsDouble();
      if (x == 0.0) x = 0.0;
      if (std::isnan(x)) x = std::numeric_limits<double>::quiet_NaN();
      std::memcpy(slot, &x, 8);
      break;
    }
    case TypeId::kString: {
      // Decoding stops at the first NUL, so nothing after it is stored.
      const std::string& s = v.AsString();
      size_t n = s.size() < col.width ? s.size() : col.width;
      if (const void* nul = std::memchr(s.data(), 0, n)) {
        n = static_cast<size_t>(static_cast<const char*>(nul) - s.data());
      }
      std::memcpy(slot, s.data(), n);
      if (n < col.width) std::memset(slot + n, 0, col.width - n);
      break;
    }
  }
}

Value DecodeValue(const Column& col, const uint8_t* slot) {
  switch (col.type) {
    case TypeId::kBool:
      return Value::Bool(slot[0] != 0);
    case TypeId::kInt32: {
      int32_t x;
      std::memcpy(&x, slot, 4);
      return Value::Int32(x);
    }
    case TypeId::kDate: {
      int32_t x;
      std::memcpy(&x, slot, 4);
      return Value::Date(x / 10000, (x / 100) % 100, x % 100);
    }
    case TypeId::kInt64: {
      int64_t x;
      std::memcpy(&x, slot, 8);
      return Value::Int64(x);
    }
    case TypeId::kDouble: {
      double x;
      std::memcpy(&x, slot, 8);
      return Value::Double(x);
    }
    case TypeId::kString: {
      size_t len = 0;
      while (len < col.width && slot[len] != 0) ++len;
      return Value::String(
          std::string(reinterpret_cast<const char*>(slot), len));
    }
  }
  WVM_UNREACHABLE("bad column type");
}

}  // namespace

void SerializeRow(const Schema& schema, const Row& row, uint8_t* out) {
  WVM_CHECK(row.size() == schema.num_columns());
  std::memset(out, 0, schema.NullBitmapBytes());
  for (size_t i = 0; i < row.size(); ++i) {
    SerializeColumn(schema, row[i], i, out);
  }
}

Row DeserializeRow(const Schema& schema, const uint8_t* data) {
  Row row;
  row.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    row.push_back(DeserializeColumn(schema, data, i));
  }
  return row;
}

Value DeserializeColumn(const Schema& schema, const uint8_t* data,
                        size_t i) {
  const Column& col = schema.column(i);
  if (RecordColumnIsNull(data, i)) return Value::Null(col.type);
  return DecodeValue(col, data + schema.ColumnOffset(i));
}

void SerializeColumn(const Schema& schema, const Value& v, size_t i,
                     uint8_t* data) {
  const Column& col = schema.column(i);
  uint8_t* slot = data + schema.ColumnOffset(i);
  const uint8_t bit = static_cast<uint8_t>(1u << (i % 8));
  if (v.is_null()) {
    data[i / 8] |= bit;
    std::memset(slot, 0, col.width);
  } else {
    data[i / 8] &= static_cast<uint8_t>(~bit);
    EncodeValue(col, v, slot);
  }
}

void CopyRecordColumn(const Schema& schema, size_t dst, size_t src,
                      uint8_t* data) {
  std::memcpy(data + schema.ColumnOffset(dst), data + schema.ColumnOffset(src),
              schema.column(dst).width);
  const uint8_t bit = static_cast<uint8_t>(1u << (dst % 8));
  if (RecordColumnIsNull(data, src)) {
    data[dst / 8] |= bit;
  } else {
    data[dst / 8] &= static_cast<uint8_t>(~bit);
  }
}

KeyCodec::KeyCodec(const Schema& record, std::vector<size_t> columns)
    : columns_(std::move(columns)) {
  std::vector<Column> layout;
  for (size_t c : columns_) {
    layout.push_back(record.column(c));
    offsets_.push_back(record.ColumnOffset(c));
  }
  layout_ = Schema(std::move(layout));
}

void KeyCodec::FromRecord(const uint8_t* rec, std::string* out) const {
  out->assign(layout_.RowByteSize(), '\0');
  uint8_t* key = reinterpret_cast<uint8_t*>(out->data());
  for (size_t j = 0; j < columns_.size(); ++j) {
    if (RecordColumnIsNull(rec, columns_[j])) {
      key[j / 8] |= static_cast<uint8_t>(1u << (j % 8));
    } else {
      std::memcpy(key + layout_.ColumnOffset(j), rec + offsets_[j],
                  layout_.column(j).width);
    }
  }
}

bool KeyCodec::FromValues(const Row& values, std::string* out,
                          bool whole_row) const {
  out->assign(layout_.RowByteSize(), '\0');
  bool holds = whole_row || values.size() == columns_.size();
  for (size_t j = 0; holds && j < columns_.size(); ++j) {
    const size_t i = whole_row ? columns_[j] : j;
    holds = i < values.size() &&
            CheckColumnValue(layout_.column(j), values[i]).ok();
    if (holds) {
      SerializeColumn(layout_, values[i], j,
                      reinterpret_cast<uint8_t*>(out->data()));
    }
  }
  if (!holds) out->clear();
  return holds;
}

Row KeyCodec::Decode(std::string_view key) const {
  WVM_CHECK(key.size() == layout_.RowByteSize());
  return DeserializeRow(layout_, reinterpret_cast<const uint8_t*>(key.data()));
}

size_t KeyCodec::Mismatch(const uint8_t* rec, std::string_view key) const {
  if (key.size() != layout_.RowByteSize()) return 0;
  const uint8_t* k = reinterpret_cast<const uint8_t*>(key.data());
  for (size_t j = 0; j < columns_.size(); ++j) {
    const bool null = RecordColumnIsNull(rec, columns_[j]);
    if (null != RecordColumnIsNull(k, j) ||
        (!null && std::memcmp(k + layout_.ColumnOffset(j), rec + offsets_[j],
                              layout_.column(j).width) != 0)) {
      return j;
    }
  }
  return columns_.size();
}

size_t KeyCodec::Mismatch(const uint8_t* rec, const uint8_t* other) const {
  for (size_t j = 0; j < columns_.size(); ++j) {
    const bool null = RecordColumnIsNull(rec, columns_[j]);
    if (null != RecordColumnIsNull(other, columns_[j]) ||
        (!null && std::memcmp(rec + offsets_[j], other + offsets_[j],
                              layout_.column(j).width) != 0)) {
      return j;
    }
  }
  return columns_.size();
}

}  // namespace wvm
