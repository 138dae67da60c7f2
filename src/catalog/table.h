#ifndef OPENWVM_CATALOG_TABLE_H_
#define OPENWVM_CATALOG_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"
#include "storage/table_heap.h"

namespace wvm {

// A relation: schema-typed view over a TableHeap of serialized rows.
class Table {
 public:
  Table(std::string name, Schema schema, BufferPool* pool);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  TableHeap* heap() { return heap_.get(); }
  const TableHeap* heap() const { return heap_.get(); }

  Result<Rid> InsertRow(const Row& row);
  Status UpdateRow(Rid rid, const Row& row);
  Status DeleteRow(Rid rid);
  Result<Row> GetRow(Rid rid) const;

  // Invokes `fn` for every live row; return false to stop early.
  // Rows are deserialized copies, safe to keep. Fails with the buffer
  // pool's error when a page cannot be fetched.
  Status ScanRows(const std::function<bool(Rid, const Row&)>& fn) const;

  // Convenience: all rows in page order.
  Result<std::vector<Row>> AllRows() const;

  uint64_t num_rows() const { return heap_->live_records(); }
  uint64_t num_pages() const { return heap_->num_pages(); }
  size_t rows_per_page() const { return heap_->records_per_page(); }

 private:
  std::string name_;
  Schema schema_;
  std::unique_ptr<TableHeap> heap_;
};

}  // namespace wvm

#endif  // OPENWVM_CATALOG_TABLE_H_
