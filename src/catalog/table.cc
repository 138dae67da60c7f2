#include "catalog/table.h"

namespace wvm {

Table::Table(std::string name, Schema schema, BufferPool* pool)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      heap_(std::make_unique<TableHeap>(pool, schema_.RowByteSize())) {}

Result<Rid> Table::InsertRow(const Row& row) {
  WVM_RETURN_IF_ERROR(schema_.ValidateRow(row));
  std::vector<uint8_t> buf(schema_.RowByteSize());
  SerializeRow(schema_, row, buf.data());
  return heap_->Insert(buf.data());
}

Status Table::UpdateRow(Rid rid, const Row& row) {
  WVM_RETURN_IF_ERROR(schema_.ValidateRow(row));
  std::vector<uint8_t> buf(schema_.RowByteSize());
  SerializeRow(schema_, row, buf.data());
  return heap_->Update(rid, buf.data());
}

Status Table::DeleteRow(Rid rid) { return heap_->Delete(rid); }

Result<Row> Table::GetRow(Rid rid) const {
  std::vector<uint8_t> buf(schema_.RowByteSize());
  WVM_RETURN_IF_ERROR(heap_->Read(rid, buf.data()));
  return DeserializeRow(schema_, buf.data());
}

Status Table::ScanRows(
    const std::function<bool(Rid, const Row&)>& fn) const {
  return heap_->Scan([&](Rid rid, const uint8_t* rec) {
    return fn(rid, DeserializeRow(schema_, rec));
  });
}

Result<std::vector<Row>> Table::AllRows() const {
  std::vector<Row> rows;
  WVM_RETURN_IF_ERROR(ScanRows([&](Rid, const Row& row) {
    rows.push_back(row);
    return true;
  }));
  return rows;
}

}  // namespace wvm
