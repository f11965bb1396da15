// Tests for the benchmark's own code: order statistics, generator
// determinism, open-loop accounting and the LogFile decorator's
// pass-through. Run with `python3 perfbench/run.py --selftest`.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cypher/database.h"
#include "harness/gen.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "storage/log_file.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ++failures;                                                         \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,     \
                   #cond);                                                \
    }                                                                     \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted 100..1
  EXPECT(perfbench::Percentile(v, 0.5) == 50);
  EXPECT(perfbench::Percentile(v, 0.9) == 90);
  EXPECT(perfbench::Percentile(v, 0.99) == 99);
  EXPECT(perfbench::Percentile(v, 1.0) == 100);
  EXPECT(perfbench::Percentile(v, 0.0) == 1);
  EXPECT(perfbench::Percentile({}, 0.5) == 0);
  // At least ten samples must lie beyond a reported percentile.
  EXPECT(perfbench::SamplesBeyond(100, 0.9) == 10);
  EXPECT(perfbench::TailSupported(100, 0.9));
  EXPECT(!perfbench::TailSupported(100, 0.99));
  EXPECT(!perfbench::TailSupported(999, 0.99));
  EXPECT(perfbench::TailSupported(1000, 0.99));
  // A failed statement misses every latency limit.
  std::vector<double> with_failure(99, 5.0);
  with_failure.push_back(perfbench::kFailedLatencyUs);
  EXPECT(perfbench::Percentile(with_failure, 1.0) == perfbench::kFailedLatencyUs);
}

void TestWindowedPercentile() {
  // 5000 samples of 10 with a 40-sample stall (value 1000) inside the first
  // window: the whole-run p99 is unaffected (40 < 50 beyond), the stalled
  // window's p99 is hit, and the median over the five windows is not.
  std::vector<double> v(5000, 10.0);
  for (int i = 100; i < 140; ++i) v[i] = 1000;
  for (int i = 0; i < 5000; i += 7) v[i] = 20;  // a second latency mode
  EXPECT(perfbench::WindowedPercentile(v, 0.99) == 20);
  for (int i = 140; i < 200; ++i) v[i] = 1000;  // 100 stalled: whole-run p99 hit
  EXPECT(perfbench::Percentile(v, 0.99) == 1000);
  EXPECT(perfbench::WindowedPercentile(v, 0.99) == 20);
  // Too few samples for two windows of 1000: the plain percentile.
  std::vector<double> few(1500, 1.0);
  few[0] = 9;
  EXPECT(perfbench::WindowedPercentile(few, 0.99) ==
         perfbench::Percentile(few, 0.99));
  // p90 windows need only 100 samples each, capped at five windows.
  std::vector<double> p90(1000);
  for (int i = 0; i < 1000; ++i) p90[i] = i % 100;
  EXPECT(perfbench::WindowedPercentile(p90, 0.9) == 89);
}

void TestQuartiles() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  auto q = perfbench::Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25));
  q = perfbench::Quartiles({10, 1, 4, 7});  // [1,4,7,10]
  EXPECT(Near(q[0], 1.75) && Near(q[1], 5.5) && Near(q[2], 9.25));
  q = perfbench::Quartiles({3, 1});
  EXPECT(Near(q[0], 0.5) && Near(q[1], 2.0) && Near(q[2], 3.5));
  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 2, 3}) == 2.5);
}

template <typename Gen>
std::string Stream(Gen gen, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += perfbench::SerializeStatement(gen.Next()) + '\n';
  return out;
}

void TestGeneratorDeterminism() {
  perfbench::GraphSpec spec;
  spec.users = 1000;
  spec.products = 100;
  spec.tags = 16;
  using perfbench::AnalyticReadGenerator;
  using perfbench::AnalyticWriteGenerator;
  using perfbench::IngestGenerator;
  using perfbench::OltpGenerator;
  EXPECT(Stream(OltpGenerator(spec, 7), 5000) ==
         Stream(OltpGenerator(spec, 7), 5000));
  EXPECT(Stream(OltpGenerator(spec, 7), 500) !=
         Stream(OltpGenerator(spec, 8), 500));
  EXPECT(Stream(AnalyticReadGenerator(spec, 7), 500) ==
         Stream(AnalyticReadGenerator(spec, 7), 500));
  EXPECT(Stream(AnalyticWriteGenerator(spec, 7), 500) ==
         Stream(AnalyticWriteGenerator(spec, 7), 500));
  EXPECT(Stream(IngestGenerator(spec, 7, 1, 2), 50) ==
         Stream(IngestGenerator(spec, 7, 1, 2), 50));
  EXPECT(Stream(IngestGenerator(spec, 7, 0, 2), 50) !=
         Stream(IngestGenerator(spec, 7, 1, 2), 50));

  // The oltp stream keeps the :VIEWED ring bounded: creates pair with deletes.
  OltpGenerator oltp(spec, 3);
  for (int i = 0; i < 50000; ++i) oltp.Next();
  EXPECT(oltp.live_viewed() >= 63 && oltp.live_viewed() <= 64);

  // The graph builder is deterministic too.
  cypher::GraphDatabase a, b;
  perfbench::GraphSpec small = spec;
  small.follows_per_user = 2;
  small.orders_per_user = 1;
  EXPECT(perfbench::BuildGraph(&a, small, 11).ok());
  EXPECT(perfbench::BuildGraph(&b, small, 11).ok());
  auto count = [](cypher::GraphDatabase* db) {
    auto r = db->Execute("MATCH (a)-[r]->(b) RETURN count(r) AS n, sum(b.id) AS s");
    return r.ok() ? r->rows[0][0].ToString() + "/" + r->rows[0][1].ToString()
                  : std::string("error");
  };
  EXPECT(count(&a) == count(&b));
}

void TestOpenLoop() {
  using perfbench::Clock;
  Clock::time_point start{};
  perfbench::OpenLoopSchedule schedule(start, 1000);  // one per millisecond
  EXPECT(schedule.Due(0) == start);
  EXPECT(schedule.Due(5) == start + std::chrono::milliseconds(5));
  // Sent on time: no lateness; latency counts from the due time.
  Clock::time_point due3 = schedule.Due(3);
  EXPECT(Near(schedule.LateUs(3, due3), 0));
  EXPECT(Near(schedule.LatencyUs(3, due3 + std::chrono::microseconds(40)), 40));
  // A stall: request 4 is sent 2.5 ms late, so its latency includes the
  // 2.5 ms it waited behind the stall.
  Clock::time_point sent = schedule.Due(4) + std::chrono::microseconds(2500);
  EXPECT(Near(schedule.LateUs(4, sent), 2500));
  EXPECT(Near(schedule.LatencyUs(4, sent + std::chrono::microseconds(10)), 2510));
  // Early sends are never negative lateness.
  EXPECT(Near(schedule.LateUs(6, schedule.Due(5)), 0));
}

/// Runs the same statements on a durable database over `file` and returns
/// the WAL bytes.
std::string WalBytesAfterWorkload(std::unique_ptr<cypher::storage::LogFile> file,
                                  const std::function<std::string()>& read) {
  cypher::GraphDatabase db;
  EXPECT(db.Run("CREATE (:User {id: 1}), (:User {id: 2})").ok());
  cypher::DurabilityOptions durability;
  durability.auto_checkpoint_bytes = 2048;  // exercise Replace too
  EXPECT(db.OpenDurable(std::move(file), durability).ok());
  perfbench::GraphSpec spec;
  spec.users = 3;
  spec.products = 50;
  perfbench::IngestGenerator gen(spec, 5, 0, 1);
  for (int i = 0; i < 30; ++i) EXPECT(db.Execute(gen.Next().text).ok());
  EXPECT(db.Checkpoint().ok());
  return read();
}

void TestLogFileDecoratorPassThrough(const std::string& dir) {
  auto plain = std::make_unique<cypher::storage::MemoryLogFile>();
  auto* plain_ptr = plain.get();
  std::string expected =
      WalBytesAfterWorkload(std::move(plain), [&] { return plain_ptr->bytes(); });

  perfbench::Tracer tracer(true);
  auto inner = std::make_unique<cypher::storage::MemoryLogFile>();
  auto* inner_ptr = inner.get();
  auto timed = std::make_unique<perfbench::TimingLogFile>(std::move(inner), &tracer);
  auto* timed_ptr = timed.get();
  perfbench::TimingLogFile::Counters counters;
  std::string actual = WalBytesAfterWorkload(std::move(timed), [&] {
    counters = timed_ptr->counters();  // the database still owns the file
    return inner_ptr->bytes();
  });
  EXPECT(!expected.empty());
  EXPECT(actual == expected);
  EXPECT(counters.appends > 0);
  EXPECT(counters.syncs > 0);
  EXPECT(counters.replaces > 0);
  auto spans = tracer.Stats();
  EXPECT(spans["storage.sync"].count == counters.syncs);

  // Same through a real file on disk.
  std::filesystem::create_directories(dir);
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  auto posix_plain = cypher::storage::OpenPosixLogFile(dir + "/plain.wal");
  auto posix_timed = cypher::storage::OpenPosixLogFile(dir + "/timed.wal");
  EXPECT(posix_plain.ok() && posix_timed.ok());
  if (posix_plain.ok() && posix_timed.ok()) {
    std::string a = WalBytesAfterWorkload(std::move(*posix_plain), [&] {
      return read_file(dir + "/plain.wal");
    });
    std::string b = WalBytesAfterWorkload(
        std::make_unique<perfbench::TimingLogFile>(std::move(*posix_timed), &tracer),
        [&] { return read_file(dir + "/timed.wal"); });
    EXPECT(!a.empty() && a == b);
  }
  std::filesystem::remove_all(dir);
}

/// Nested spans: the child's time is subtracted from the parent's self time.
void TestSpans() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(&tracer, "outer");
    perfbench::Tracer::Scope inner(&tracer, "inner");
    usleep(2000);
  }
  auto spans = tracer.Stats();
  EXPECT(spans["outer"].count == 1 && spans["inner"].count == 1);
  EXPECT(spans["outer"].child_us >= spans["inner"].total_us);
  EXPECT(spans["outer"].self_us() < spans["inner"].total_us);
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope span(&off, "x"); }
  EXPECT(off.Stats().empty());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <scratch-dir>\n");
    return 2;
  }
  TestPercentiles();
  TestWindowedPercentile();
  TestQuartiles();
  TestGeneratorDeterminism();
  TestOpenLoop();
  TestLogFileDecoratorPassThrough(argv[1]);
  TestSpans();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
