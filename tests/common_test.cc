#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/interner.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slot_vector.h"
#include "common/status.h"
#include "common/strings.h"

namespace cypher {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::SyntaxError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kSyntaxError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "SyntaxError: bad token");
}

TEST(StatusTest, CopyShares) {
  Status a = Status::ExecutionError("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(b.code(), StatusCode::kExecutionError);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubled(Result<int> in) {
  CYPHER_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::InternalError("x")).ok());
}

TEST(InternerTest, InternIsIdempotent) {
  Interner interner;
  Symbol a = interner.Intern("User");
  Symbol b = interner.Intern("Product");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("User"), a);
  EXPECT_EQ(interner.Name(a), "User");
  EXPECT_EQ(interner.Name(b), "Product");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, FindDoesNotIntern) {
  Interner interner;
  EXPECT_EQ(interner.Find("missing"), kNoSymbol);
  EXPECT_EQ(interner.size(), 0u);
  Symbol s = interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), s);
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("MERGE", "merge"));
  EXPECT_TRUE(EqualsIgnoreCase("MaTcH", "mAtCh"));
  EXPECT_FALSE(EqualsIgnoreCase("MATCH", "MATC"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.0), "1.0");
  EXPECT_EQ(FormatDouble(-3.0), "-3.0");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
}

TEST(StringsTest, QuoteString) {
  EXPECT_EQ(QuoteString("it's"), "'it\\'s'");
  EXPECT_EQ(QuoteString("a\nb"), "'a\\nb'");
}

TEST(CsvTest, ParsesHeaderAndRows) {
  auto doc = ParseCsv("cid,pid\n98,125\n99,\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->header, (std::vector<std::string>{"cid", "pid"}));
  ASSERT_EQ(doc->rows.size(), 2u);
  EXPECT_EQ(doc->rows[1][1], "");
}

TEST(CsvTest, QuotedFieldsAndEscapes) {
  auto doc = ParseCsv("name\n\"a,b\"\n\"say \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->rows[0][0], "a,b");
  EXPECT_EQ(doc->rows[1][0], "say \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  auto doc = ParseCsv("a,b\n1\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(CsvTest, RoundTrip) {
  CsvDocument doc;
  doc.header = {"x", "y"};
  doc.rows = {{"1", "a,b"}, {"2", "plain"}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  EXPECT_EQ(parsed->rows, doc.rows);
}

TEST(RandomTest, DeterministicStream) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, RangesRespected) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ShufflePermutes) {
  SplitMix64 rng(11);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  rng.Shuffle(&items);
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

// ---- SlotVector chunk release -----------------------------------------------

constexpr size_t kChunk = SlotVector<int>::kChunkSize;

/// The read-only chunk released positions share; outlives every vector.
int* SharedChunk() {
  static std::array<int, kChunk> shared = [] {
    std::array<int, kChunk> values;
    values.fill(-1);
    return values;
  }();
  return shared.data();
}

/// Chunks holding storage of their own: allocated and not released.
size_t ResidentChunks(const SlotVector<int>& v) {
  size_t resident = 0;
  for (size_t ci = 0; ci * kChunk < v.size(); ++ci) {
    resident += !v.IsReleased(ci);
  }
  return resident;
}

TEST(SlotVectorTest, ReleasedChunkReadsSharedValueAndFreesOnce) {
  SlotVector<int> v;
  for (size_t i = 0; i < 3 * kChunk + 5; ++i) v.Append(static_cast<int>(i));
  EXPECT_EQ(ResidentChunks(v), 4u);
  int* old = v.ReleaseChunk(1, SharedChunk());
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old[0], static_cast<int>(kChunk));
  SlotVector<int>::FreeChunk(old);
  EXPECT_TRUE(v.IsReleased(1));
  EXPECT_FALSE(v.IsReleased(0));
  EXPECT_EQ(ResidentChunks(v), 3u);
  const SlotVector<int>& read = v;
  for (size_t i = kChunk; i < 2 * kChunk; ++i) EXPECT_EQ(read[i], -1);
  EXPECT_EQ(read[kChunk - 1], static_cast<int>(kChunk - 1));
  EXPECT_EQ(read[2 * kChunk], static_cast<int>(2 * kChunk));
  // Growing past the first spine copies the shared pointer along.
  while (v.size() < 20 * kChunk) v.Append(7);
  EXPECT_EQ(read[kChunk + 3], -1);
  EXPECT_TRUE(v.IsReleased(1));
  // A move carries the release state; both destructors then run. A double
  // free, or a free of the shared chunk, is what ASan would flag here.
  SlotVector<int> moved(std::move(v));
  EXPECT_TRUE(moved.IsReleased(1));
  EXPECT_EQ(ResidentChunks(moved), 19u);
  SlotVector<int> assigned;
  assigned.Append(1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned[5], 5);
  EXPECT_EQ(std::as_const(assigned)[kChunk], -1);
}

TEST(SlotVectorDeathTest, WriteIntoReleasedChunkAborts) {
  EXPECT_DEATH(
      {
        SlotVector<int> v;
        for (size_t i = 0; i < 2 * kChunk; ++i) v.Append(0);
        SlotVector<int>::FreeChunk(v.ReleaseChunk(0, SharedChunk()));
        v[3] = 1;
      },
      "write into a released SlotVector chunk");
}

TEST(SlotVectorDeathTest, SecondReleaseOfAChunkAborts) {
  EXPECT_DEATH(
      {
        SlotVector<int> v;
        for (size_t i = 0; i < 2 * kChunk; ++i) v.Append(0);
        SlotVector<int>::FreeChunk(v.ReleaseChunk(0, SharedChunk()));
        v.ReleaseChunk(0, SharedChunk());
      },
      "SlotVector chunk released twice");
}

// Readers index concurrently while the writer appends, grows the spine and
// releases chunks; old chunks are freed only after the readers stop (what
// a retire list does). Every read sees either the original value or the
// shared one, which agree: released chunks hold only -1s. Run under TSan in
// CI.
TEST(SlotVectorTest, ConcurrentReadersSeeReleasedChunksConsistently) {
  constexpr size_t kChunks = 40;
  SlotVector<int> v;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&v, &done, t] {
      const SlotVector<int>& read = v;
      size_t probe = static_cast<size_t>(t) * 7919;
      while (!done.load(std::memory_order_acquire)) {
        size_t n = read.size();
        if (n == 0) continue;
        probe = (probe * 6364136223846793005ULL + 1442695040888963407ULL);
        size_t i = (probe >> 17) % n;
        int value = read[i];
        bool dead_chunk = (i / kChunk) % 2 == 0;
        EXPECT_EQ(value, dead_chunk ? -1 : static_cast<int>(i));
      }
    });
  }
  std::vector<int*> retired;
  for (size_t c = 0; c < kChunks; ++c) {
    for (size_t k = 0; k < kChunk; ++k) {
      size_t i = c * kChunk + k;
      v.Append(c % 2 == 0 ? -1 : static_cast<int>(i));
    }
    if (c % 2 == 0) retired.push_back(v.ReleaseChunk(c, SharedChunk()));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (int* chunk : retired) SlotVector<int>::FreeChunk(chunk);
  EXPECT_EQ(ResidentChunks(v), kChunks / 2);
}

}  // namespace
}  // namespace cypher
