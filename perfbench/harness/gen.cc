#include "harness/gen.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using cypher::SplitMix64;
using cypher::Status;
using cypher::Value;

namespace {

constexpr int64_t kBuildBatch = 4096;

Status RunBatched(cypher::GraphDatabase* db, const std::string& text,
                  std::vector<Value>* rows) {
  if (rows->empty()) return Status::OK();
  auto result = db->Execute(text, {{"rows", Value::List(std::move(*rows))}});
  rows->clear();
  return result.status();
}

Value Row(std::initializer_list<Value> cells) { return Value::List(cells); }

std::string PairList(const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  std::string out = "[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ',';
    out += '[' + std::to_string(pairs[i].first) + ',' +
           std::to_string(pairs[i].second) + ']';
  }
  return out + ']';
}

}  // namespace

Status BuildGraph(cypher::GraphDatabase* db, const GraphSpec& spec,
                  uint64_t seed) {
  SplitMix64 rng(seed ^ 0x6a09e667f3bcc908ULL);
  std::vector<Value> rows;
  const std::string users =
      "UNWIND $rows AS r CREATE (:User {id: r[0], name: r[1], age: r[2], "
      "city: r[3], score: 0, visits: 0})";
  for (int64_t id = 0; id < spec.users; ++id) {
    rows.push_back(Row({Value::Int(id), Value::String("u" + std::to_string(id)),
                        Value::Int(rng.NextInRange(18, 80)),
                        Value::Int(rng.NextInRange(0, spec.cities - 1))}));
    if (static_cast<int64_t>(rows.size()) == kBuildBatch) {
      CYPHER_RETURN_NOT_OK(RunBatched(db, users, &rows));
    }
  }
  CYPHER_RETURN_NOT_OK(RunBatched(db, users, &rows));

  const std::string products =
      "UNWIND $rows AS r CREATE (:Product {id: r[0], price: r[1], "
      "category: r[2]})";
  for (int64_t id = 0; id < spec.products; ++id) {
    rows.push_back(Row({Value::Int(id), Value::Int(rng.NextInRange(1, 1000)),
                        Value::Int(rng.NextInRange(0, spec.categories - 1))}));
    if (static_cast<int64_t>(rows.size()) == kBuildBatch) {
      CYPHER_RETURN_NOT_OK(RunBatched(db, products, &rows));
    }
  }
  CYPHER_RETURN_NOT_OK(RunBatched(db, products, &rows));

  if (spec.tags > 0) {
    CYPHER_RETURN_NOT_OK(
        db->Execute("UNWIND range(0, $n - 1) AS t CREATE (:Tag {tid: t, "
                    "last: -1})",
                    {{"n", Value::Int(spec.tags)}})
            .status());
  }
  CYPHER_RETURN_NOT_OK(db->Run("CREATE INDEX ON :User(id)"));
  CYPHER_RETURN_NOT_OK(db->Run("CREATE INDEX ON :Product(id)"));
  if (spec.tags > 0) CYPHER_RETURN_NOT_OK(db->Run("CREATE INDEX ON :Tag(tid)"));

  const std::string follows =
      "UNWIND $rows AS r MATCH (a:User {id: r[0]}), (b:User {id: r[1]}) "
      "CREATE (a)-[:FOLLOWS]->(b)";
  const std::string ordered =
      "UNWIND $rows AS r MATCH (a:User {id: r[0]}), (b:Product {id: r[1]}) "
      "CREATE (a)-[:ORDERED {qty: r[2]}]->(b)";
  std::vector<Value> order_rows;
  for (int64_t id = 0; id < spec.users; ++id) {
    for (int k = 0; k < spec.follows_per_user; ++k) {
      int64_t target = rng.NextInRange(0, spec.users - 1);
      if (target == id) target = (target + 1) % spec.users;
      rows.push_back(Row({Value::Int(id), Value::Int(target)}));
    }
    for (int k = 0; k < spec.orders_per_user && spec.products > 0; ++k) {
      order_rows.push_back(
          Row({Value::Int(id), Value::Int(rng.NextInRange(0, spec.products - 1)),
               Value::Int(rng.NextInRange(1, 5))}));
    }
    if (static_cast<int64_t>(rows.size()) >= kBuildBatch) {
      CYPHER_RETURN_NOT_OK(RunBatched(db, follows, &rows));
    }
    if (static_cast<int64_t>(order_rows.size()) >= kBuildBatch) {
      CYPHER_RETURN_NOT_OK(RunBatched(db, ordered, &order_rows));
    }
  }
  CYPHER_RETURN_NOT_OK(RunBatched(db, follows, &rows));
  return RunBatched(db, ordered, &order_rows);
}

std::string SerializeStatement(const Statement& statement) {
  std::string out = std::to_string(statement.kind) + '/' +
                    std::to_string(statement.shape) + '|' + statement.text;
  for (const auto& [name, value] : statement.params) {
    out += '|' + name + '=' + value.ToString();
  }
  return out;
}

ZipfKeys::ZipfKeys(int64_t n, double s, uint64_t seed) {
  cdf_.resize(n);
  double total = 0;
  for (int64_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[rank] = total;
  }
  for (double& c : cdf_) c /= total;
  ids_.resize(n);
  for (int64_t i = 0; i < n; ++i) ids_[i] = i;
  SplitMix64 shuffle(seed ^ 0xbb67ae8584caa73bULL);
  shuffle.Shuffle(&ids_);
}

int64_t ZipfKeys::Next(SplitMix64* rng) const {
  double u = rng->NextDouble();
  size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return ids_[std::min(rank, ids_.size() - 1)];
}

// ---- oltp_point -------------------------------------------------------------

namespace {

constexpr double kOltpReadShare = 0.9;
constexpr size_t kLiveViewed = 64;

const std::vector<std::string>& OltpWriteShapes() {
  static const std::vector<std::string> shapes = {
      "MATCH (u:User {id: $id}) SET u.score = $score",
      "MATCH (u:User {id: $id}) SET u.visits = u.visits + 1",
      "MERGE SAME (t:Tag {tid: $tid}) SET t.last = $id",
      "MATCH (u:User {id: $id}), (p:Product {id: $pid}) "
      "CREATE (u)-[:VIEWED {at: $at}]->(p)",
      "MATCH (u:User {id: $id})-[v:VIEWED {at: $at}]->(:Product) DELETE v",
  };
  return shapes;
}

const std::vector<std::string>& OltpReadShapes() {
  static const std::vector<std::string> shapes = {
      "MATCH (u:User {id: $id})-[:FOLLOWS]->(f:User) "
      "RETURN f.id AS id, f.name AS name ORDER BY id",
      "MATCH (u:User {id: $id})-[:FOLLOWS]->(f:User) "
      "RETURN count(f) AS n, max(f.age) AS oldest",
      "MATCH (u:User {id: $id})-[:ORDERED]->(p:Product) "
      "RETURN p.id AS id, p.price AS price ORDER BY id, price",
      "MATCH (u:User {id: $id})-[:FOLLOWS]->(f:User) WHERE f.age >= $age "
      "RETURN f.name AS name ORDER BY name",
      "MATCH (u:User {id: $id})-[:FOLLOWS]->(f:User) WHERE f.city = u.city "
      "RETURN count(*) AS same_city",
      "MATCH (u:User {id: $id})-[:FOLLOWS]->(f:User) "
      "RETURN f.id AS id, f.score AS score, f.visits AS visits ORDER BY id",
  };
  return shapes;
}

}  // namespace

OltpGenerator::OltpGenerator(const GraphSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed), keys_(spec.users, 0.99, seed) {}

Statement OltpGenerator::Next() {
  Statement s;
  int64_t id = keys_.Next(&rng_);
  if (rng_.NextDouble() < kOltpReadShare) {
    s.kind = kOltpRead;
    // Shapes 1, 2, 4 cost about 8 us and 0, 3, 5 about 11 us: weighting
    // the cheap ones to 66% puts p50 and p90 inside a cost group.
    static constexpr uint64_t kCumulative[] = {11, 33, 55, 66, 88, 100};
    uint64_t pick = rng_.NextBelow(100);
    s.shape = 0;
    while (pick >= kCumulative[s.shape]) ++s.shape;
    s.text = OltpReadShapes()[s.shape];
    s.params["id"] = Value::Int(id);
    if (s.shape == 3) s.params["age"] = Value::Int(rng_.NextInRange(20, 70));
    return s;
  }
  s.kind = kOltpWrite;
  // By cost: SET (20%) < counter SET (25%) < MERGE SAME (15%) < DELETE
  // (20%) < CREATE (20%), so p50 falls inside MERGE SAME and p90 inside
  // CREATE rather than on a boundary between shapes.
  uint64_t pick = rng_.NextBelow(100);
  ++counter_;
  if (pick < 20) {
    s.shape = 0;
    s.params = {{"id", Value::Int(id)}, {"score", Value::Int(counter_)}};
  } else if (pick < 45) {
    s.shape = 1;
    s.params = {{"id", Value::Int(id)}};
  } else if (pick < 60) {
    s.shape = 2;
    s.params = {{"tid", Value::Int(rng_.NextInRange(0, spec_.tags - 1))},
                {"id", Value::Int(id)}};
  } else if (viewed_.size() >= kLiveViewed && delete_next_) {
    s.shape = 4;
    auto [user, at] = viewed_.front();
    viewed_.pop_front();
    s.params = {{"id", Value::Int(user)}, {"at", Value::Int(at)}};
    delete_next_ = false;
  } else {
    s.shape = 3;
    viewed_.emplace_back(id, counter_);
    s.params = {{"id", Value::Int(id)},
                {"pid", Value::Int(rng_.NextInRange(0, spec_.products - 1))},
                {"at", Value::Int(counter_)}};
    delete_next_ = true;
  }
  s.text = OltpWriteShapes()[s.shape];
  return s;
}

// ---- analytic ---------------------------------------------------------------

AnalyticReadGenerator::AnalyticReadGenerator(const GraphSpec& spec,
                                             uint64_t seed)
    : spec_(spec), rng_(seed ^ 0x3c6ef372fe94f82bULL) {}

Statement AnalyticReadGenerator::Next() {
  // Weights keep p50 inside the scan class (40-80% of reads by cost order:
  // fof < shortest < scan < trail), away from a class boundary.
  uint64_t pick = rng_.NextBelow(100);
  return Make(pick < 20   ? kFriendOfFriend
              : pick < 40 ? kShortestPath
              : pick < 80 ? kLabelScan
                          : kTrailCount);
}

Statement AnalyticReadGenerator::Make(int cls) {
  Statement s;
  s.kind = cls;
  s.shape = cls;
  switch (cls) {
    case kFriendOfFriend:
      s.text =
          "MATCH (u:User {city: $city})-[:FOLLOWS]->(:User)-[:FOLLOWS]->"
          "(f:User) RETURN f.city AS city, count(*) AS n "
          "ORDER BY n DESC, city LIMIT 5";
      s.params["city"] = Value::Int(rng_.NextInRange(0, spec_.cities - 1));
      break;
    case kTrailCount:
      s.text =
          "MATCH (u:User {city: $city})-[:FOLLOWS*1..3]->(f:User) "
          "RETURN count(*) AS paths";
      s.params["city"] = Value::Int(rng_.NextInRange(0, spec_.cities - 1));
      break;
    case kLabelScan:
      s.text =
          "MATCH (p:Product) WHERE p.price >= $min RETURN p.category AS "
          "category, count(*) AS n, sum(p.price) AS total ORDER BY category";
      s.params["min"] = Value::Int(rng_.NextInRange(1, 500));
      break;
    default:
      s.text =
          "MATCH (a:User {id: $a}), (b:User {id: $b}) "
          "MATCH p = shortestPath((a)-[:FOLLOWS*..5]->(b)) "
          "RETURN length(p) AS hops";
      s.params["a"] = Value::Int(rng_.NextInRange(0, spec_.users - 1));
      s.params["b"] = Value::Int(rng_.NextInRange(0, spec_.users - 1));
      break;
  }
  return s;
}

AnalyticWriteGenerator::AnalyticWriteGenerator(const GraphSpec& spec,
                                               uint64_t seed)
    : spec_(spec), rng_(seed ^ 0xa54ff53a5f1d36f1ULL) {}

Statement AnalyticWriteGenerator::Next() {
  Statement s;
  s.kind = 0;
  s.text = "UNWIND $ids AS id MATCH (u:User {id: id}) SET u.score = $score";
  std::vector<Value> ids;
  for (int i = 0; i < kPointsPerWrite; ++i) {
    ids.push_back(Value::Int(rng_.NextInRange(0, spec_.users - 1)));
  }
  s.params = {{"ids", Value::List(std::move(ids))},
              {"score", Value::Int(++counter_)}};
  return s;
}

// ---- ingest_replicated ------------------------------------------------------

IngestGenerator::IngestGenerator(const GraphSpec& spec, uint64_t seed,
                                 int writer, int writers)
    : spec_(spec),
      rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(writer) + 1),
      writer_(writer),
      writers_(writers) {}

std::pair<int64_t, int64_t> IngestGenerator::FreshPair() {
  int64_t slots = spec_.users / writers_;
  int64_t user =
      writer_ + writers_ * static_cast<int64_t>(rng_.NextBelow(slots));
  return {user, rng_.NextInRange(0, spec_.products - 1)};
}

Statement IngestGenerator::Next() {
  std::vector<std::pair<int64_t, int64_t>> fresh;
  for (int i = 0; i < kFresh; ++i) fresh.push_back(FreshPair());
  std::vector<std::pair<int64_t, int64_t>> rows = fresh;
  for (int i = kFresh; i < kRows; ++i) {
    if (window_.empty()) {
      rows.push_back(FreshPair());
    } else {
      const auto& batch = window_[rng_.NextBelow(window_.size())];
      rows.push_back(batch[rng_.NextBelow(batch.size())]);
    }
  }
  rng_.Shuffle(&rows);
  std::vector<std::pair<int64_t, int64_t>> retract;
  if (window_.size() >= kRetractLag) {
    retract = std::move(window_.front());
    window_.pop_front();
  } else {
    // Before the window fills, retract pairs that (almost surely) do not
    // exist, so the statement shape and its row counts never change.
    for (int i = 0; i < kFresh; ++i) retract.push_back(FreshPair());
  }
  window_.push_back(std::move(fresh));

  Statement s;
  s.text = "UNWIND " + PairList(rows) +
           " AS r MERGE SAME (u:User {id: r[0]}) MERGE SAME (p:Product {id: "
           "r[1]}) MERGE SAME (u)-[:ORDERED]->(p) WITH count(*) AS merged "
           "UNWIND " +
           PairList(retract) +
           " AS d MATCH (:User {id: d[0]})-[o:ORDERED]->(:Product {id: d[1]}) "
           "DELETE o";
  return s;
}

}  // namespace perfbench
