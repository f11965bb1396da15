// The grouping key index and the per-tile partial aggregation behind the
// streamed MATCH -> aggregate pass: first-occurrence group ids, the
// GroupEquals equivalence, growth, and merging tile-local group sets in
// tile order into exactly the sequential set.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "test_util.h"

namespace cypher {
namespace {

using ::cypher::testing::RunOk;

/// The id of the one-value key `v` in `index`, inserted on first sight.
size_t Insert(GroupIndex* index, const Value& v, bool* inserted) {
  return index->FindOrInsert(GroupIndex::Hash(1, CopyKey(&v)), CopyKey(&v),
                             inserted);
}

size_t Insert(GroupIndex* index, const Value& v) {
  bool inserted;
  return Insert(index, v, &inserted);
}

TEST(GroupIndexTest, IdsFollowFirstOccurrence) {
  GroupIndex index(1);
  bool inserted;
  EXPECT_EQ(Insert(&index, Value::Int(3), &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Insert(&index, Value::Int(1), &inserted), 1u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(Insert(&index, Value::Int(3), &inserted), 0u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(Insert(&index, Value::Int(2)), 2u);
  EXPECT_EQ(Insert(&index, Value::Int(1)), 1u);
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.key(0)[0].AsInt(), 3);
  EXPECT_EQ(index.key(1)[0].AsInt(), 1);
  EXPECT_EQ(index.key(2)[0].AsInt(), 2);
}

TEST(GroupIndexTest, GroupsUnderGroupEquals) {
  GroupIndex index(1);
  // 1 and 1.0 are one group; the first occurrence's value is the key.
  EXPECT_EQ(Insert(&index, Value::Int(1)), 0u);
  EXPECT_EQ(Insert(&index, Value::Float(1.0)), 0u);
  EXPECT_TRUE(index.key(0)[0].is_int());
  // Null groups with null.
  EXPECT_EQ(Insert(&index, Value::Null()), 1u);
  EXPECT_EQ(Insert(&index, Value::Null()), 1u);
  // Values of different types stay apart.
  EXPECT_EQ(Insert(&index, Value::String("1")), 2u);
  EXPECT_EQ(Insert(&index, Value::Bool(true)), 3u);
  EXPECT_EQ(Insert(&index, Value::Float(1.5)), 4u);
  // Lists group elementwise, with null = null and 1 = 1.0 inside.
  Value list = Value::List({Value::Int(1), Value::Null()});
  EXPECT_EQ(Insert(&index, list), 5u);
  EXPECT_EQ(Insert(&index, Value::List({Value::Float(1.0), Value::Null()})),
            5u);
  EXPECT_EQ(Insert(&index, Value::List({Value::Int(1)})), 6u);
  EXPECT_EQ(Insert(&index, Value::List({})), 7u);
  EXPECT_EQ(index.size(), 8u);
}

TEST(GroupIndexTest, MultiValueKeysAndEmptyKey) {
  GroupIndex pairs(2);
  auto insert = [&](Value a, Value b) {
    Value key[] = {std::move(a), std::move(b)};
    bool inserted;
    return pairs.FindOrInsert(GroupIndex::Hash(2, CopyKey(key)),
                              MoveKey(key), &inserted);
  };
  EXPECT_EQ(insert(Value::Int(1), Value::String("a")), 0u);
  EXPECT_EQ(insert(Value::Int(1), Value::String("b")), 1u);
  EXPECT_EQ(insert(Value::String("a"), Value::Int(1)), 2u);
  EXPECT_EQ(insert(Value::Float(1.0), Value::String("a")), 0u);
  EXPECT_EQ(pairs.key(1)[1].AsString(), "b");

  // The empty key (an ungrouped aggregate) is a single group.
  GroupIndex global(0);
  bool inserted;
  uint64_t h = GroupIndex::Hash(0, CopyKey(nullptr));
  EXPECT_EQ(global.FindOrInsert(h, CopyKey(nullptr), &inserted), 0u);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(global.FindOrInsert(h, CopyKey(nullptr), &inserted), 0u);
  EXPECT_FALSE(inserted);
}

TEST(GroupIndexTest, GrowsPastInitialCapacity) {
  constexpr int64_t kGroups = 12000;
  GroupIndex index(1);
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t i = 0; i < kGroups; ++i) {
      // Int and string keys interleaved: 2 * kGroups distinct groups.
      EXPECT_EQ(Insert(&index, Value::Int(i)), static_cast<size_t>(2 * i));
      EXPECT_EQ(Insert(&index, Value::String("k" + std::to_string(i))),
                static_cast<size_t>(2 * i + 1));
    }
    ASSERT_EQ(index.size(), static_cast<size_t>(2 * kGroups));
  }
  EXPECT_EQ(index.key(2 * 777)[0].AsInt(), 777);
  EXPECT_EQ(index.key(2 * 777 + 1)[0].AsString(), "k777");
}

// ---- Tile-local group sets merged in tile order ----------------------------

struct Row {
  Value key;
  Value arg;
};

/// The aggregates of every group, each over the row's argument.
const std::vector<AggSpec> kSpecs = {{AggOp::kCountStar, nullptr},
                                     {AggOp::kCount, nullptr},
                                     {AggOp::kSum, nullptr},
                                     {AggOp::kMin, nullptr},
                                     {AggOp::kMax, nullptr}};

/// Folds rows [begin, end) into one tile's group set, as the streamed pass
/// does per anchor tile.
GroupSet FoldTile(const std::vector<Row>& rows, size_t begin, size_t end) {
  GroupSet groups(1, kSpecs.size());
  for (size_t r = begin; r < end; ++r) {
    auto key = CopyKey(&rows[r].key);
    Partial* partials =
        groups.partials_of(groups.Group(GroupIndex::Hash(1, key), key));
    for (size_t i = 0; i < kSpecs.size(); ++i) {
      UpdatePartial(kSpecs[i], &partials[i],
                    [&]() -> Result<Value> { return rows[r].arg; });
    }
  }
  return groups;
}

/// Every group's key and finalized items, with value types spelled out
/// (1 and 1.0 print alike).
std::string Render(GroupSet groups) {
  auto typed = [](const Value& v) {
    return v.ToString() + (v.is_float() ? "f" : "");
  };
  std::string out;
  for (size_t g = 0; g < groups.size(); ++g) {
    out += groups.index.arity() == 0 ? "()" : typed(groups.index.key(g)[0]);
    Partial* partials = groups.partials_of(g);
    for (size_t i = 0; i < kSpecs.size(); ++i) {
      out += " | ";
      if (partials[i].fallback) {
        out += "fallback";
        continue;
      }
      Result<Value> v = FinalizePartial(kSpecs[i], std::move(partials[i]));
      out += v.ok() ? typed(*v) : v.status().ToString();
    }
    out += "\n";
  }
  return out;
}

/// The merged set of `rows` cut into tiles at `cuts` (ascending, inside
/// the row range).
std::string MergedAt(const std::vector<Row>& rows,
                     const std::vector<size_t>& cuts) {
  std::vector<GroupSet> parts;
  size_t begin = 0;
  for (size_t end : cuts) {
    parts.push_back(FoldTile(rows, begin, end));
    begin = end;
  }
  parts.push_back(FoldTile(rows, begin, rows.size()));
  return Render(MergeGroupSets(std::move(parts), kSpecs, /*global=*/false));
}

TEST(MergeGroupSetsTest, TileOrderMergeEqualsSequential) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  auto i = [](int64_t v) { return Value::Int(v); };
  auto s = [](const char* v) { return Value::String(v); };
  const std::vector<Row> rows = {
      {s("b"), i(5)},
      // "big": prefix MAX + 1 overflows, the total MAX - 1 is in range.
      {s("big"), i(kMax)},
      {s("big"), i(1)},
      {s("big"), i(-2)},
      // min ties 1.0 then 1, max ties 1 then 1.0: the first seen wins.
      {s("ties"), Value::Float(1.0)},
      {i(1), Value::Null()},
      {s("ties2"), i(1)},
      {s("ties"), i(1)},
      {s("ties2"), i(0)},
      {s("ties"), i(2)},
      {s("ties2"), Value::Float(1.0)},
      {Value::Null(), i(7)},
      {Value::Float(1.0), i(3)},  // the group of key 1
      {s("b"), i(-5)},
      {s("fine"), i(kMax)},
      {s("fine"), i(-1)},
      {Value::Null(), Value::Null()},
      {s("fine"), i(-2)},
      {s("b"), i(2)},
  };
  const std::string sequential = MergedAt(rows, {});
  // The sequential set itself: the overflow is reported, ties keep the
  // first-seen value, nulls are skipped by every aggregate but count(*).
  for (const std::string& group :
       {std::string("'big' | 3 | 3 | ExecutionError"),
        std::string("'ties' | 3 | 3 | fallback | 1.0f | 2\n"),
        std::string("'ties2' | 3 | 3 | fallback | 0 | 1\n"),
        "'fine' | 3 | 3 | " + std::to_string(kMax - 3) + " | ",
        std::string("\n1 | 2 | 1 | 3 | 3 | 3\n")}) {
    EXPECT_NE(sequential.find(group), std::string::npos)
        << group << " in\n" << sequential;
  }

  // Every two-tile cut (the overflow sits inside one tile or straddles
  // the cut), every row its own tile, and a few uneven three-tile cuts.
  for (size_t cut = 1; cut < rows.size(); ++cut) {
    EXPECT_EQ(MergedAt(rows, {cut}), sequential) << "cut at " << cut;
  }
  std::vector<size_t> singletons;
  for (size_t r = 1; r < rows.size(); ++r) singletons.push_back(r);
  EXPECT_EQ(MergedAt(rows, singletons), sequential);
  for (std::vector<size_t> cuts :
       {std::vector<size_t>{1, 4}, {3, 4}, {2, 11}, {7, 15}}) {
    EXPECT_EQ(MergedAt(rows, cuts), sequential)
        << "cuts at " << cuts[0] << ", " << cuts[1];
  }
}

TEST(MergeGroupSetsTest, GlobalAggregateOverNoRowsHasOneGroup) {
  const std::vector<AggSpec> specs = {{AggOp::kCountStar, nullptr},
                                      {AggOp::kMin, nullptr}};
  std::vector<GroupSet> parts;
  for (int t = 0; t < 3; ++t) parts.emplace_back(0, specs.size());
  GroupSet merged = MergeGroupSets(std::move(parts), specs, /*global=*/true);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(FinalizePartial(specs[0], std::move(merged.partials_of(0)[0]))
                ->AsInt(),
            0);
  EXPECT_TRUE(FinalizePartial(specs[1], std::move(merged.partials_of(0)[1]))
                  ->is_null());

  // Grouped: no rows, no groups.
  std::vector<GroupSet> keyed;
  keyed.emplace_back(1, specs.size());
  EXPECT_EQ(MergeGroupSets(std::move(keyed), specs, false).size(), 0u);
}

TEST(MergeGroupSetsTest, GlobalAggregateOverNoRowsEndToEnd) {
  GraphDatabase db;
  RunOk(&db, "UNWIND range(1, 20) AS i CREATE (:N {v: i})");
  for (size_t workers : {0, 2}) {
    db.options().parallel_workers = workers;
    db.options().parallel_min_cost = 1;
    // Streamed (MATCH -> RETURN) and materialized (UNWIND -> RETURN).
    for (const char* query :
         {"MATCH (n:N) WHERE n.v > 100 RETURN count(*) AS c, min(n.v) AS m",
          "UNWIND [] AS x RETURN count(*) AS c, min(x) AS m"}) {
      QueryResult r = RunOk(&db, query);
      ASSERT_EQ(r.rows.size(), 1u) << query;
      EXPECT_EQ(r.rows[0][0].AsInt(), 0) << query;
      EXPECT_TRUE(r.rows[0][1].is_null()) << query;
    }
    QueryResult grouped =
        RunOk(&db, "MATCH (n:N) WHERE n.v > 100 RETURN n.v AS v, count(*) AS c");
    EXPECT_TRUE(grouped.rows.empty());
  }
}

}  // namespace
}  // namespace cypher
