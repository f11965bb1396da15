#include "table/table.h"

#include <unordered_set>

#include "common/check.h"
#include "value/compare.h"

namespace cypher {

Table Table::Unit() {
  Table t;
  t.rows_.emplace_back();
  return t;
}

Table Table::WithColumns(std::vector<std::string> columns) {
  Table t;
  for (auto& c : columns) t.AddColumn(c);
  return t;
}

size_t Table::ColumnIndex(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) return kNoColumn;
  return it->second;
}

size_t Table::AddColumn(const std::string& name) {
  CYPHER_CHECK(!HasColumn(name));
  size_t idx = columns_.size();
  columns_.push_back(name);
  index_.emplace(name, idx);
  for (auto& row : rows_) row.emplace_back();
  return idx;
}

void Table::AddRow(std::vector<Value> row) {
  CYPHER_CHECK(row.size() == columns_.size());
  rows_.push_back(std::move(row));
}

Result<Table> Table::BagUnion(const Table& a, const Table& b) {
  // Column sets must agree (order-insensitively).
  if (a.num_columns() != b.num_columns()) {
    return Status::ExecutionError(
        "UNION branches return different numbers of columns");
  }
  std::vector<size_t> remap(b.num_columns());
  for (size_t i = 0; i < a.columns_.size(); ++i) {
    size_t j = b.ColumnIndex(a.columns_[i]);
    if (j == kNoColumn) {
      return Status::ExecutionError("UNION branches return different columns: '" +
                                    a.columns_[i] + "' missing from one branch");
    }
    remap[i] = j;
  }
  Table out = WithColumns(a.columns_);
  for (const auto& row : a.rows_) out.rows_.push_back(row);
  for (const auto& row : b.rows_) {
    std::vector<Value> mapped(a.num_columns());
    for (size_t i = 0; i < a.num_columns(); ++i) mapped[i] = row[remap[i]];
    out.rows_.push_back(std::move(mapped));
  }
  return out;
}

Table Table::Distinct() const {
  Table out = WithColumns(columns_);
  std::unordered_set<std::vector<Value>, ValueVecHash, ValueVecEq> seen;
  for (const auto& row : rows_) {
    if (seen.insert(row).second) out.rows_.push_back(row);
  }
  return out;
}

uint64_t ValueVecHash::operator()(const std::vector<Value>& vec) const {
  uint64_t h = 59;
  for (const Value& v : vec) {
    h ^= HashValue(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool ValueVecEq::operator()(const std::vector<Value>& a,
                            const std::vector<Value>& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!GroupEquals(a[i], b[i])) return false;
  }
  return true;
}

uint64_t ValueHash::operator()(const Value& v) const { return HashValue(v); }

bool ValueEq::operator()(const Value& a, const Value& b) const {
  return GroupEquals(a, b);
}

}  // namespace cypher
