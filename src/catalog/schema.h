#ifndef OPENWVM_CATALOG_SCHEMA_H_
#define OPENWVM_CATALOG_SCHEMA_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"

namespace wvm {

// Column definition. `width` is the fixed storage width in bytes (strings
// are padded to their declared width so rows are fixed-size and can be
// updated in place, which the paper's rewrite approach requires, §4).
// `updatable` marks attributes a maintenance transaction may change; only
// those get pre-update shadow columns under 2VNL (§3.1).
struct Column {
  std::string name;
  TypeId type;
  uint16_t width;
  bool updatable = false;

  static Column Bool(std::string name, bool updatable = false) {
    return {std::move(name), TypeId::kBool, 1, updatable};
  }
  static Column Int32(std::string name, bool updatable = false) {
    return {std::move(name), TypeId::kInt32, 4, updatable};
  }
  static Column Int64(std::string name, bool updatable = false) {
    return {std::move(name), TypeId::kInt64, 8, updatable};
  }
  static Column Double(std::string name, bool updatable = false) {
    return {std::move(name), TypeId::kDouble, 8, updatable};
  }
  static Column Date(std::string name, bool updatable = false) {
    return {std::move(name), TypeId::kDate, 4, updatable};
  }
  static Column String(std::string name, uint16_t width,
                       bool updatable = false) {
    return {std::move(name), TypeId::kString, width, updatable};
  }
};

// A declared secondary hash index over non-updatable columns (§4.3): under
// 2VNL, in-place version updates never change these attributes, so the
// index needs maintenance only on physical insert/delete — it costs the
// maintenance transaction nothing on the update-heavy path. Typical use:
// the group-by prefix of a summary table.
struct SecondaryIndexSpec {
  std::string name;
  std::vector<size_t> column_indices;  // schema positions, declared order
};

// Relation schema: ordered columns plus an optional unique key (for summary
// tables the key is the set of group-by attributes, which are never
// updatable — §3.1).
class Schema {
 public:
  Schema() = default;
  Schema(std::vector<Column> columns, std::vector<size_t> key_indices = {});

  const std::vector<Column>& columns() const { return columns_; }
  const Column& column(size_t i) const { return columns_[i]; }
  size_t num_columns() const { return columns_.size(); }

  // Unique-key column positions; empty means no unique key.
  const std::vector<size_t>& key_indices() const { return key_indices_; }
  bool has_unique_key() const { return !key_indices_.empty(); }

  // Position of a column by name, or kNotFound.
  Result<size_t> IndexOf(const std::string& name) const;
  bool Contains(const std::string& name) const;

  // Positions of all columns with updatable == true.
  std::vector<size_t> UpdatableIndices() const;

  // Sum of declared column widths — the paper's per-tuple byte count as
  // used in Figure 3 (no alignment, no null bitmap).
  size_t AttributeBytes() const;

  // Physical serialized row size: null bitmap + attribute bytes.
  size_t RowByteSize() const { return row_bytes_; }
  size_t NullBitmapBytes() const { return (columns_.size() + 7) / 8; }

  // Byte offset of column i's fixed-width slot inside a serialized row
  // (bitmap included). Lets scan hot loops read single attributes off raw
  // record bytes without deserializing the whole row.
  size_t ColumnOffset(size_t i) const { return offsets_[i]; }

  // Extracts the key values of `row` in key-index order.
  Row KeyOf(const Row& row) const;

  // Declares a secondary hash index over `column_names` (§4.3). Every
  // column must exist and be non-updatable — an index over an updatable
  // attribute would need maintenance on every in-place version update,
  // which defeats the design; such declarations are rejected.
  Status AddSecondaryIndex(std::string index_name,
                           const std::vector<std::string>& column_names);
  const std::vector<SecondaryIndexSpec>& secondary_indexes() const {
    return secondary_indexes_;
  }

  // Validates that `row` matches the schema arity and column types
  // (NULLs are allowed for any column).
  Status ValidateRow(const Row& row) const;

  std::string ToString() const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<Column> columns_;
  std::vector<size_t> key_indices_;
  std::vector<size_t> offsets_;  // per-column slot offsets, bitmap included
  size_t row_bytes_ = 0;
  std::vector<SecondaryIndexSpec> secondary_indexes_;
};

// Whether column `col` can hold `v` as the same value: NULL, a value of
// the column's type, an INT32 or INT64 within an integer column's range,
// or any numeric for a DOUBLE column. The one such rule: ValidateRow, SQL
// coercion and key probes all ask it. InvalidArgument names the column.
Status CheckColumnValue(const Column& col, const Value& v);

// Serializes `row` into exactly schema.RowByteSize() bytes at `out`.
// Layout: null bitmap, then fixed-width column slots in schema order.
// Equal values have equal bytes: strings longer than the declared width
// are truncated, a string slot is zero from its first NUL on, -0.0 is
// stored as +0.0 and every NaN as one quiet NaN.
void SerializeRow(const Schema& schema, const Row& row, uint8_t* out);

// Inverse of SerializeRow.
Row DeserializeRow(const Schema& schema, const uint8_t* data);

// Null-bitmap test on a serialized row.
inline bool RecordColumnIsNull(const uint8_t* data, size_t i) {
  return (data[i / 8] & (1u << (i % 8))) != 0;
}

// Deserializes a single column out of a serialized row (NULL-aware).
Value DeserializeColumn(const Schema& schema, const uint8_t* data, size_t i);

// Writes `v` into column i of a serialized row in place (NULL-aware): the
// bytes SerializeRow would give that column, and its null bit.
void SerializeColumn(const Schema& schema, const Value& v, size_t i,
                     uint8_t* data);

// Copies column `src` of a serialized row onto column `dst` of the same
// row: slot bytes and null bit. Both columns must have the same type and
// width.
void CopyRecordColumn(const Schema& schema, size_t dst, size_t src,
                      uint8_t* data);

// A key: the bytes a list of columns has in a serialized record, laid out
// as a record of just those columns (packed null bits, then the slots in
// list order). As equal values have equal bytes, equal keys are equal
// byte strings. Unique keys and indexes cover only non-updatable columns
// (§3.1, §4.3), so a tuple's index key bytes never change while it lives.
// A GROUP BY key may cover an updatable column: a reader makes it with the
// codec of the version it reads, whose columns are that version's physical
// positions (the column's pre-update copy for an older version), and gets
// the bytes the current version would have if it held those values. This
// codec is the only code that makes key bytes, and Decode the only code
// that turns them back into Values.
class KeyCodec {
 public:
  KeyCodec() = default;
  // `columns` are positions in `record`, the serialized record layout.
  KeyCodec(const Schema& record, std::vector<size_t> columns);

  const std::vector<size_t>& columns() const { return columns_; }

  // The key record `rec` carries.
  void FromRecord(const uint8_t* rec, std::string* out) const;
  // The key of probe values, one per column in list order (with
  // `whole_row`, a row indexed by record position), encoded as a record
  // stores them. False, with *out empty — no key's bytes, so the probe
  // finds nothing — when a value is one its column cannot hold.
  bool FromValues(const Row& values, std::string* out,
                  bool whole_row = false) const;
  // The values of key bytes `key` (a FromRecord or FromValues result), one
  // per column in list order, typed as the columns are.
  Row Decode(std::string_view key) const;

  // The list position of the first column whose bytes in record `rec`
  // differ from `key`'s, or columns().size() when `rec` carries `key`.
  // Compared in place; nothing is decoded.
  size_t Mismatch(const uint8_t* rec, std::string_view key) const;
  bool RecordHasKey(const uint8_t* rec, std::string_view key) const {
    return Mismatch(rec, key) == columns_.size();
  }
  // The list position of the first column whose bytes differ between
  // records `rec` and `other` of the codec's record layout, or
  // columns().size() when they agree on every column. In place, like the
  // overload above.
  size_t Mismatch(const uint8_t* rec, const uint8_t* other) const;

 private:
  Schema layout_;                 // the key columns as a record
  std::vector<size_t> columns_;
  std::vector<size_t> offsets_;   // their slot offsets in `record`
};

// Hashes key bytes; transparent, so a map keyed by std::string is probed
// with a std::string_view and a probe allocates nothing.
struct KeyBytesHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>()(key);
  }
};

}  // namespace wvm

#endif  // OPENWVM_CATALOG_SCHEMA_H_
