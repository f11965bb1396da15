#ifndef CYPHER_TABLE_TABLE_H_
#define CYPHER_TABLE_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "value/value.h"

namespace cypher {

/// The driving table of the paper (Section 2): a bag of consistent records,
/// i.e. key-value maps sharing one key set. Stored row-major with a shared
/// column header; cells are Values.
///
/// Clause semantics `[[C]] : (G, T) -> (G', T')` thread tables through the
/// interpreter; Table is a value type (copy = deep copy of rows, cheap cell
/// copies thanks to Value's shared representations).
class Table {
 public:
  /// The empty table: no columns, no rows. MATCH on this yields nothing.
  Table() = default;

  /// T() of the paper: the table with a single empty record, the input to
  /// every query.
  static Table Unit();

  /// A table with the given columns and no rows.
  static Table WithColumns(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  static constexpr size_t kNoColumn = static_cast<size_t>(-1);

  /// Index of a column, or kNoColumn.
  size_t ColumnIndex(std::string_view name) const;
  bool HasColumn(std::string_view name) const {
    return ColumnIndex(name) != kNoColumn;
  }

  /// Appends a column (must be fresh); existing rows get null cells.
  /// Returns the new column's index.
  size_t AddColumn(const std::string& name);

  /// Appends a row; its arity must equal num_columns().
  void AddRow(std::vector<Value> row);

  const std::vector<Value>& row(size_t i) const { return rows_[i]; }
  std::vector<Value>& mutable_row(size_t i) { return rows_[i]; }
  const std::vector<std::vector<Value>>& rows() const { return rows_; }

  Value& At(size_t row, size_t col) { return rows_[row][col]; }
  const Value& At(size_t row, size_t col) const { return rows_[row][col]; }

  void Clear() { rows_.clear(); }

  /// The header and rows, moved out; the table is left empty.
  struct Contents {
    std::vector<std::string> columns;
    std::vector<std::vector<Value>> rows;
  };
  Contents Release() && {
    index_.clear();
    return {std::move(columns_), std::move(rows_)};
  }

  /// Bag union (the paper's ⊎). Column sets must be equal; b's rows are
  /// re-ordered to a's column order.
  static Result<Table> BagUnion(const Table& a, const Table& b);

  /// Removes duplicate rows under grouping equivalence (null = null),
  /// keeping first occurrences (used by DISTINCT and UNION).
  Table Distinct() const;

 private:
  std::vector<std::string> columns_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::vector<Value>> rows_;
};

/// Hash/equality adapters for row keys under grouping equivalence, for use
/// with unordered containers (DISTINCT, aggregation, Grouping MERGE).
struct ValueVecHash {
  uint64_t operator()(const std::vector<Value>& vec) const;
};
struct ValueVecEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
};

/// The same adapters for single values (DISTINCT aggregates).
struct ValueHash {
  uint64_t operator()(const Value& v) const;
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const;
};
using ValueSet = std::unordered_set<Value, ValueHash, ValueEq>;

}  // namespace cypher

#endif  // CYPHER_TABLE_TABLE_H_
