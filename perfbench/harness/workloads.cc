#include "harness/workloads.h"

#include <atomic>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "ast/printer.h"
#include "cypher/database.h"
#include "graph/serialize.h"
#include "harness/gen.h"
#include "harness/proc.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "parser/parser.h"
#include "replication/socket_transport.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "vm/compiler.h"
#include "vm/normalize.h"

namespace perfbench {

using cypher::EvalOptions;
using cypher::GraphDatabase;
using cypher::PlanCacheStats;
using cypher::QueryResult;
using cypher::Result;
using cypher::Status;

namespace {

/// Independent set-ups per run; setup_s is their median. Smaller set-ups
/// repeat more often so each run's median rests on about a second of work.
constexpr int kOltpSetups = 3;
constexpr int kAnalyticSetups = 11;
constexpr int kIngestSetups = 5;

// ---- Metric sets --------------------------------------------------------------

/// The end-to-end metrics, in BENCHMARK.json order. "primary" and
/// "secondary" are the workload's two operation classes (see README.md).
const std::vector<std::pair<std::string, std::string>>& EndToEndNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"stmt_per_s", "1/s"},
      {"primary_p50_us", "us"},
      {"primary_tail_us", "us"},
      {"secondary_p50_us", "us"},
      {"secondary_tail_us", "us"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const char* const kClassNames[] = {"point", "fof", "trail", "scan",
                                   "shortest"};

/// Every per-layer metric, in BENCHMARK.json order; a traced run reports
/// all of them, 0 where the workload does not run that layer.
const std::vector<std::pair<std::string, std::string>>& LayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"parser.parse_us", "us"},
        {"vm.shape_key_us", "us"},
        {"vm.compile_us", "us"},
        {"vm.raw_hit_ratio", "ratio"},
        {"vm.shape_hit_ratio", "ratio"},
        {"vm.miss_ratio", "ratio"},
        {"vm.evictions_per_stmt", "ratio"},
    };
    for (const char* prefix :
         {"exec.interp_read_us.", "exec.vm_read_us.", "exec.parallel_gain.",
          "match.rows_per_result."}) {
      std::string unit = std::string(prefix).find("_us") != std::string::npos
                             ? "us"
                             : "ratio";
      for (const char* cls : kClassNames) n.push_back({prefix + std::string(cls), unit});
    }
    std::vector<std::pair<std::string, std::string>> rest = {
        {"graph.retired_pending_max", "count"},
        {"graph.epochs_per_s", "1/s"},
        {"graph.refresh_us", "us"},
        {"storage.fsyncs_per_commit", "ratio"},
        {"storage.fsync_p50_us", "us"},
        {"storage.fsync_p99_us", "us"},
        {"storage.bytes_per_stmt", "B"},
        {"storage.write_amp", "ratio"},
        {"storage.rewrites", "count"},
        {"storage.rewrite_ms", "ms"},
        {"storage.fsync_share", "ratio"},
        {"repl.ack_lag_bytes_p50", "B"},
        {"repl.ack_lag_bytes_p99", "B"},
        {"repl.ship_lag_bytes_p99", "B"},
        {"repl.follower_cpu_us_per_stmt", "us"},
        {"repl.bootstrap_ms", "ms"},
        {"repl.resends", "count"},
        {"repl.reconnects", "count"},
        {"repl.stale_detaches", "count"},
        {"cypher.execute_us", "us"},
        {"harness.tracing_overhead", "ratio"},
        {"harness.gen_late_p99_us", "us"},
    };
    n.insert(n.end(), rest.begin(), rest.end());
    return n;
  }();
  return names;
}

void Emit(const std::vector<std::pair<std::string, std::string>>& names,
          const std::map<std::string, double>& values, Report* report) {
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    report->metrics.push_back({name, it == values.end() ? 0 : it->second, unit});
  }
}

/// Latency samples of one operation class.
struct ClassLatency {
  std::string label;  // class name in the detail lines, e.g. "read"
  double tail_q = 0.99;
  std::vector<double> us;
};

std::string Fixed(double value, int digits = 2) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

/// Fills the end-to-end metric values and the per-class detail lines.
void EmitEndToEnd(const std::string& workload,
                  const std::vector<double>& setups, double stmt_per_s,
                  const ClassLatency& primary, const ClassLatency& secondary,
                  Report* report) {
  std::map<std::string, double> v;
  // Read before the percentiles below copy the sample buffers.
  v["peak_rss_mb"] = PeakRssMb();
  double setup_s = Median(setups);
  v["setup_s"] = setup_s;
  v["stmt_per_s"] = stmt_per_s;
  v["primary_p50_us"] = Percentile(primary.us, 0.5);
  v["primary_tail_us"] = WindowedPercentile(primary.us, primary.tail_q);
  v["secondary_p50_us"] = Percentile(secondary.us, 0.5);
  v["secondary_tail_us"] = WindowedPercentile(secondary.us, secondary.tail_q);
  Emit(EndToEndNames(), v, report);
  for (const ClassLatency* c : {&primary, &secondary}) {
    std::string tail = "p" + std::to_string(static_cast<int>(c->tail_q * 100));
    report->lines.push_back(
        workload + " " + c->label + "_p50_us = " +
        Fixed(Percentile(c->us, 0.5)) + " us, " + c->label + "_" + tail +
        "_us = " + Fixed(WindowedPercentile(c->us, c->tail_q)) +
        " us (window median; whole-run " + tail + " " +
        Fixed(Percentile(c->us, c->tail_q)) + " us; n=" +
        std::to_string(c->us.size()) + ", " +
        std::to_string(SamplesBeyond(c->us.size(), c->tail_q)) +
        " beyond the tail" +
        (TailSupported(c->us.size(), c->tail_q) ? "" : ": TOO FEW") + ")");
  }
  report->lines.push_back(workload + " setup_s = " + Fixed(setup_s, 4) +
                          " s (median of " + std::to_string(setups.size()) +
                          "), stmt_per_s = " + Fixed(stmt_per_s, 1) +
                          ", peak_rss_mb = " + Fixed(v["peak_rss_mb"], 1));
}

/// Result rows as text, for tier-vs-tier comparison.
std::string ResultKey(const QueryResult& result) {
  std::string key;
  for (const std::string& column : result.columns) key += column + '\t';
  for (const auto& row : result.rows) {
    key += '\n';
    for (const cypher::Value& cell : row) key += cell.ToString() + '\t';
  }
  return key;
}

template <typename F>
double ElapsedUs(F&& fn) {
  Clock::time_point start = Clock::now();
  fn();
  return MicrosBetween(start, Clock::now());
}

void Fail(Report* report, const std::string& what) {
  report->correct = false;
  report->lines.push_back("CHECK FAILED: " + what);
}

/// Untraced over traced throughput, minus one. The traced window sits
/// between two untraced quarter-windows, so a linear drift within the run
/// (the ingest WAL grows) cancels out.
double TracingOverhead(uint64_t plain_ops, double plain_s, uint64_t traced_ops,
                       double traced_s) {
  return (plain_ops / plain_s) / (traced_ops / traced_s) - 1;
}

double PlanCacheRatio(uint64_t part, uint64_t base) {
  return base == 0 ? 0 : static_cast<double>(part) / static_cast<double>(base);
}

/// Plan-cache counter deltas over `statements` statements.
void EmitCacheDeltas(const PlanCacheStats& before, const PlanCacheStats& after,
                     uint64_t statements, std::map<std::string, double>* m) {
  (*m)["vm.raw_hit_ratio"] =
      PlanCacheRatio(after.raw_hits - before.raw_hits, statements);
  (*m)["vm.shape_hit_ratio"] =
      PlanCacheRatio(after.shape_hits - before.shape_hits, statements);
  (*m)["vm.miss_ratio"] =
      PlanCacheRatio(after.misses - before.misses, statements);
  (*m)["vm.evictions_per_stmt"] =
      PlanCacheRatio(after.evictions - before.evictions, statements);
}

/// parser / vm layer timings over a sample of the workload's statements:
/// ParseQuery, ParametrizeQuery + ToCypher (the shape key), and
/// CompileStatement once per distinct shape.
void MeasureFrontEnd(const std::vector<Statement>& sample,
                     std::map<std::string, double>* m, Report* report) {
  double parse_us = 0, shape_us = 0, compile_us = 0;
  std::map<std::string, cypher::Query> shapes;
  for (const Statement& s : sample) {
    Clock::time_point t0 = Clock::now();
    Result<cypher::Query> parsed = cypher::ParseQuery(s.text);
    Clock::time_point t1 = Clock::now();
    if (!parsed.ok()) {
      Fail(report, "parse: " + parsed.status().message());
      return;
    }
    parse_us += MicrosBetween(t0, t1);
    std::vector<cypher::Value> literals;
    t0 = Clock::now();
    cypher::ParametrizeQuery(&*parsed, &literals);
    std::string key = cypher::ToCypher(*parsed);
    shape_us += MicrosBetween(t0, Clock::now());
    shapes.emplace(std::move(key), std::move(*parsed));
  }
  for (const auto& [key, query] : shapes) {
    Clock::time_point t0 = Clock::now();
    auto program = cypher::CompileStatement(query);
    compile_us += MicrosBetween(t0, Clock::now());
  }
  (*m)["parser.parse_us"] = parse_us / sample.size();
  (*m)["vm.shape_key_us"] = shape_us / sample.size();
  (*m)["vm.compile_us"] = compile_us / shapes.size();
}

/// Sum of MATCH-clause output rows (PROFILE) per result row.
Result<double> RowsPerResult(GraphDatabase* db, const Statement& s) {
  CYPHER_ASSIGN_OR_RETURN(QueryResult profile,
                          db->Execute("PROFILE " + s.text, s.params));
  CYPHER_ASSIGN_OR_RETURN(QueryResult plain, db->Execute(s.text, s.params));
  double matched = 0;
  for (const auto& row : profile.rows) {
    if (row[1].AsString().rfind("MATCH", 0) == 0) matched += row[2].AsInt();
  }
  return matched / static_cast<double>(std::max<size_t>(1, plain.num_rows()));
}

void SpanMean(const std::map<std::string, SpanStats>& spans,
              const std::string& span, const std::string& metric,
              std::map<std::string, double>* m) {
  auto it = spans.find(span);
  if (it != spans.end() && it->second.count > 0) {
    (*m)[metric] = it->second.total_us / it->second.count;
  }
}

void WriteTrace(const RunConfig& config, const Tracer& tracer) {
  if (config.trace_dir.empty()) return;
  tracer.WriteSpans(config.trace_dir + "/" + config.workload + ".spans.jsonl");
}

// ==== oltp_point ===============================================================

/// Independent embedded databases with one closed-loop client thread each.
/// A single client thread measured the host's per-core speed swings (up to
/// 2x between runs of the same seed); three shards average them out.
constexpr int kOltpShards = 3;

GraphSpec OltpShardSpec() {
  GraphSpec spec;
  spec.users = 100000 / kOltpShards;
  spec.products = 10000 / kOltpShards;
  spec.follows_per_user = 4;
  spec.orders_per_user = 2;
  spec.tags = 256;
  return spec;
}

struct OltpWindow {
  uint64_t statements = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  ClassLatency read{"read", 0.90, {}};
  ClassLatency write{"write", 0.90, {}};
};

/// Runs one closed-loop client for `seconds`; every 512th read is re-run on
/// the interpreter tier on the same state and must produce the same rows.
OltpWindow RunOltpWindow(GraphDatabase* db, OltpGenerator* gen, double seconds,
                         Tracer* tracer, uint64_t* visits_writes,
                         Report* report) {
  OltpWindow w;
  // Reserved up front (only touched pages become resident), so the sample
  // buffers never reallocate and peak_rss_mb does not track throughput.
  w.read.us.reserve(static_cast<size_t>(seconds * 300000));
  w.write.us.reserve(static_cast<size_t>(seconds * 40000));
  EvalOptions interp = db->options();
  interp.use_plan_cache = false;
  uint64_t reads = 0;
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::duration excluded{};
  while (Clock::now() < end) {
    Statement s = gen->Next();
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> r = [&] {
      Tracer::Scope span(tracer, "cypher.execute");
      return db->Execute(s.text, s.params);
    }();
    Clock::time_point t1 = Clock::now();
    ++w.statements;
    ClassLatency& cls = s.kind == kOltpRead ? w.read : w.write;
    if (!r.ok()) {
      ++w.failed;
      cls.us.push_back(kFailedLatencyUs);
      if (w.failed == 1) report->lines.push_back("failed: " + r.status().message());
      continue;
    }
    cls.us.push_back(MicrosBetween(t0, t1));
    if (s.kind == kOltpWrite && s.shape == 1) ++*visits_writes;
    if (s.kind == kOltpRead && ++reads % 512 == 0) {
      Result<QueryResult> ref = db->Execute(s.text, s.params, interp);
      if (!ref.ok() || ResultKey(*ref) != ResultKey(*r)) {
        Fail(report, "vm and interpreter rows differ for: " + s.text);
      }
      Clock::duration spent = Clock::now() - t1;
      excluded += spent;
      end += spent;
    }
  }
  w.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start - excluded).count();
  return w;
}

/// One shard: its database, its client's statement stream, what the stream
/// has sent (for the whole-state checks), and the shard's own messages.
struct OltpShard {
  std::unique_ptr<GraphDatabase> db;
  std::unique_ptr<OltpGenerator> gen;
  uint64_t visits_writes = 0;
  Report report;
};

/// Runs `fn(shard, index)` on one thread per shard and waits for all.
template <typename F>
void ForEachShard(std::vector<OltpShard>* shards, F&& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < shards->size(); ++i) {
    threads.emplace_back([&fn, shards, i] { fn((*shards)[i], i); });
  }
  for (std::thread& t : threads) t.join();
}

/// Appends the clients' samples slice by slice: the w-th fifth of every
/// client's (completion-ordered) samples, then the next fifth, so the
/// windows WindowedPercentile cuts stay aligned in time across clients.
void PoolInTimeOrder(const std::vector<const std::vector<double>*>& parts,
                     std::vector<double>* out) {
  constexpr size_t kSlices = 5;
  for (size_t w = 0; w < kSlices; ++w) {
    for (const std::vector<double>* part : parts) {
      out->insert(out->end(), part->begin() + part->size() * w / kSlices,
                  part->begin() + part->size() * (w + 1) / kSlices);
    }
  }
}

/// Every shard's client for `seconds`: counts add up, elapsed time is the
/// clients' mean, latency samples pool.
OltpWindow RunOltpShards(std::vector<OltpShard>* shards, double seconds,
                         Tracer* tracer) {
  std::vector<OltpWindow> parts(shards->size());
  ForEachShard(shards, [&](OltpShard& shard, size_t i) {
    parts[i] = RunOltpWindow(shard.db.get(), shard.gen.get(), seconds, tracer,
                             &shard.visits_writes, &shard.report);
  });
  OltpWindow merged;
  std::vector<const std::vector<double>*> reads, writes;
  for (const OltpWindow& part : parts) {
    merged.statements += part.statements;
    merged.failed += part.failed;
    merged.elapsed_s += part.elapsed_s / parts.size();
    reads.push_back(&part.read.us);
    writes.push_back(&part.write.us);
  }
  PoolInTimeOrder(reads, &merged.read.us);
  PoolInTimeOrder(writes, &merged.write.us);
  return merged;
}

PlanCacheStats TotalCacheStats(const std::vector<OltpShard>& shards) {
  PlanCacheStats total;
  for (const OltpShard& shard : shards) {
    PlanCacheStats s = shard.db->plan_cache().Stats();
    total.raw_hits += s.raw_hits;
    total.shape_hits += s.shape_hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

/// Moves every shard's messages into `report`; false if any shard failed.
bool CollectShardReports(std::vector<OltpShard>* shards, Report* report) {
  for (OltpShard& shard : *shards) {
    report->correct = report->correct && shard.report.correct;
    for (std::string& line : shard.report.lines) {
      report->lines.push_back(std::move(line));
    }
    shard.report = Report();
  }
  return report->correct;
}

}  // namespace

Report RunOltpPoint(const RunConfig& config) {
  Report report;
  report.context = MachineContextJson("", "no WAL (in-memory)");
  const GraphSpec spec = OltpShardSpec();
  auto shard_seed = [&](size_t i) { return config.seed * kOltpShards + i; };
  std::vector<OltpShard> shards;
  std::vector<double> setups;
  for (int k = 0; k < kOltpSetups; ++k) {
    shards.clear();
    shards.resize(kOltpShards);
    Clock::time_point t0 = Clock::now();
    ForEachShard(&shards, [&](OltpShard& shard, size_t i) {
      shard.db = std::make_unique<GraphDatabase>();
      Status st = BuildGraph(shard.db.get(), spec, shard_seed(i));
      if (!st.ok()) Fail(&shard.report, "graph build: " + st.message());
    });
    setups.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    if (!CollectShardReports(&shards, &report)) return report;
  }

  // Warm-up: fills each plan cache and :VIEWED ring.
  ForEachShard(&shards, [&](OltpShard& shard, size_t i) {
    shard.gen = std::make_unique<OltpGenerator>(spec, shard_seed(i));
    for (int n = 0; n < 20000; ++n) {
      Statement s = shard.gen->Next();
      if (!shard.db->Execute(s.text, s.params).ok()) {
        Fail(&shard.report, "warm-up statement failed: " + s.text);
        return;
      }
      if (s.kind == kOltpWrite && s.shape == 1) ++shard.visits_writes;
    }
  });
  if (!CollectShardReports(&shards, &report)) return report;

  Tracer tracer(config.trace);
  OltpWindow w;
  std::map<std::string, double> layer;
  if (!config.trace) {
    w = RunOltpShards(&shards, config.seconds, nullptr);
  } else {
    OltpWindow before_plain = RunOltpShards(&shards, config.seconds / 4, nullptr);
    PlanCacheStats before = TotalCacheStats(shards);
    w = RunOltpShards(&shards, config.seconds / 2, &tracer);
    PlanCacheStats after = TotalCacheStats(shards);
    OltpWindow after_plain = RunOltpShards(&shards, config.seconds / 4, nullptr);
    EmitCacheDeltas(before, after, w.statements, &layer);
    layer["harness.tracing_overhead"] = TracingOverhead(
        before_plain.statements + after_plain.statements,
        before_plain.elapsed_s + after_plain.elapsed_s, w.statements,
        w.elapsed_s);
    SpanMean(tracer.Stats(), "cypher.execute", "cypher.execute_us", &layer);

    // Single-threaded layer timings on the first shard.
    GraphDatabase* db = shards[0].db.get();
    OltpGenerator sampler(spec, shard_seed(0) + 1);
    std::vector<Statement> sample, reads;
    while (reads.size() < 2000) {
      Statement s = sampler.Next();
      if (s.kind == kOltpRead) reads.push_back(s);
      sample.push_back(std::move(s));
    }
    MeasureFrontEnd(sample, &layer, &report);
    EvalOptions vm = db->options(), interp = db->options();
    interp.use_plan_cache = false;
    EvalOptions wide = vm;
    wide.parallel_workers = 3;
    auto run_all = [&](const EvalOptions& options) {
      for (const Statement& s : reads) (void)db->Execute(s.text, s.params, options);
    };
    run_all(vm);  // warm
    layer["exec.vm_read_us.point"] = ElapsedUs([&] { run_all(vm); }) / reads.size();
    layer["exec.interp_read_us.point"] =
        ElapsedUs([&] { run_all(interp); }) / reads.size();
    double wide_us = ElapsedUs([&] { run_all(wide); }) / reads.size();
    layer["exec.parallel_gain.point"] = layer["exec.vm_read_us.point"] / wide_us;
    double rows = 0;
    for (size_t i = 0; i < 100; ++i) {
      Result<double> r = RowsPerResult(db, reads[i]);
      if (!r.ok()) {
        Fail(&report, "PROFILE failed: " + r.status().message());
        break;
      }
      rows += *r;
    }
    layer["match.rows_per_result.point"] = rows / 100;
    WriteTrace(config, tracer);
  }

  // Whole-state checks: the paired :VIEWED creates/deletes and the visit
  // counters must add up to exactly what each stream sent.
  for (OltpShard& shard : shards) {
    auto viewed =
        shard.db->Execute("MATCH ()-[v:VIEWED]->() RETURN count(v) AS n");
    if (!viewed.ok() || viewed->rows[0][0].AsInt() !=
                            static_cast<int64_t>(shard.gen->live_viewed())) {
      Fail(&report, ":VIEWED relationship count does not match the stream");
    }
    auto visits = shard.db->Execute("MATCH (u:User) RETURN sum(u.visits) AS n");
    if (!visits.ok() || visits->rows[0][0].AsInt() !=
                            static_cast<int64_t>(shard.visits_writes)) {
      Fail(&report, "visit counters do not match the stream");
    }
  }
  CollectShardReports(&shards, &report);

  report.attempted = w.statements;
  report.failed = w.failed;
  if (config.trace) {
    Emit(LayerNames(), layer, &report);
  } else {
    report.lines.push_back("oltp_point: " + std::to_string(kOltpShards) +
                           " shards, one closed-loop client each");
    EmitEndToEnd("oltp_point", setups, w.statements / w.elapsed_s, w.read,
                 w.write, &report);
  }
  return report;
}

// ==== analytic ===================================================================

namespace {

GraphSpec AnalyticSpec() {
  GraphSpec spec;
  spec.users = 5000;
  spec.products = 4000;
  spec.follows_per_user = 4;
  spec.orders_per_user = 1;
  spec.cities = 64;
  return spec;
}

constexpr size_t kAnalyticWorkers = 2;
constexpr double kAnalyticWriteRate = 500;  // writes per second, open loop

struct AnalyticWindow {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  ClassLatency read{"read", 0.99, {}};
  ClassLatency write{"write", 0.90, {}};
  std::vector<double> per_class_us[kAnalyticClasses];
  std::vector<double> late_us;
  std::vector<double> exec_us;  // writer: sent to done
  size_t retired_max = 0;
  double epochs_per_s = 0;
};

/// Sleeps until shortly before `due`, then spins, so the writer's wake-up
/// quantum does not land in its latency. (A writer spinning the whole
/// period ran its own statements 2x slower on some runs than on others.)
void WaitUntil(Clock::time_point due) {
  Clock::time_point nap = due - std::chrono::microseconds(200);
  if (Clock::now() < nap) std::this_thread::sleep_until(nap);
  while (Clock::now() < due) {
  }
}

AnalyticWindow RunAnalyticWindow(GraphDatabase* db,
                                 GraphDatabase::ReadSession* session,
                                 AnalyticReadGenerator* reader,
                                 AnalyticWriteGenerator* writer,
                                 double seconds, Tracer* tracer,
                                 Report* report) {
  AnalyticWindow w;
  EvalOptions write_options = db->options();
  write_options.parallel_workers = 0;
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::mutex report_mu;
  std::thread write_thread([&] {
    OpenLoopSchedule schedule(start, kAnalyticWriteRate);
    for (uint64_t i = 0;; ++i) {
      Clock::time_point due = schedule.Due(i);
      if (due >= end) break;
      WaitUntil(due);
      Statement s = writer->Next();
      Clock::time_point sent = Clock::now();
      Result<QueryResult> r = [&] {
        Tracer::Scope span(tracer, "cypher.execute");
        return db->Execute(s.text, s.params, write_options);
      }();
      Clock::time_point done = Clock::now();
      ++w.writes;
      w.late_us.push_back(schedule.LateUs(i, sent));
      w.exec_us.push_back(MicrosBetween(sent, done));
      if (!r.ok()) {
        std::lock_guard<std::mutex> lock(report_mu);
        ++w.failed;
        w.write.us.push_back(kFailedLatencyUs);
        report->lines.push_back("failed: " + r.status().message());
        continue;
      }
      w.write.us.push_back(schedule.LatencyUs(i, done));
      // The writer owns the retire list between statements.
      if (tracer != nullptr) {
        w.retired_max = std::max(w.retired_max, db->graph().RetiredPending());
      }
    }
  });

  uint64_t first_epoch = 0, last_epoch = 0;
  Clock::duration excluded{};
  uint64_t failed_reads = 0;
  while (Clock::now() < end) {
    {
      Tracer::Scope span(tracer, "graph.refresh");
      session->Refresh();
    }
    if (first_epoch == 0) first_epoch = session->epoch();
    last_epoch = session->epoch();
    Statement s = reader->Next();
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> r = [&] {
      Tracer::Scope span(tracer, "cypher.execute");
      return session->Execute(s.text, s.params);
    }();
    Clock::time_point t1 = Clock::now();
    ++w.reads;
    if (!r.ok()) {
      ++failed_reads;
      w.read.us.push_back(kFailedLatencyUs);
      std::lock_guard<std::mutex> lock(report_mu);
      report->lines.push_back("failed: " + r.status().message());
      continue;
    }
    w.read.us.push_back(MicrosBetween(t0, t1));
    w.per_class_us[s.kind].push_back(w.read.us.back());
    if (w.reads % 16 == 0) {
      // Same pinned epoch, interpreter tier: rows must match exactly. Only
      // this thread reads the database's session options.
      db->options().use_plan_cache = false;
      Result<QueryResult> ref = session->Execute(s.text, s.params);
      db->options().use_plan_cache = true;
      if (!ref.ok() || ResultKey(*ref) != ResultKey(*r)) {
        std::lock_guard<std::mutex> lock(report_mu);
        Fail(report, "vm and interpreter rows differ at a pinned epoch for: " +
                         s.text);
      }
      Clock::duration spent = Clock::now() - t1;
      excluded += spent;
    }
  }
  write_thread.join();
  w.failed += failed_reads;
  w.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start - excluded).count();
  w.epochs_per_s = (last_epoch - first_epoch) / seconds;
  return w;
}

}  // namespace

Report RunAnalytic(const RunConfig& config) {
  Report report;
  report.context = MachineContextJson("", "no WAL (in-memory, MVCC)");
  const GraphSpec spec = AnalyticSpec();
  // One set-up is ~60 ms on one thread, short enough for a host speed streak
  // to cover all of them; so half run before the measured window and half
  // after it, and setup_s is the median of both halves.
  std::vector<double> setups;
  auto set_up = [&]() -> std::unique_ptr<GraphDatabase> {
    Clock::time_point t0 = Clock::now();
    auto fresh = std::make_unique<GraphDatabase>();
    Status st = BuildGraph(fresh.get(), spec, config.seed);
    if (st.ok()) st = fresh->EnableMvcc();
    setups.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    if (!st.ok()) {
      Fail(&report, "graph build: " + st.message());
      return nullptr;
    }
    return fresh;
  };
  std::unique_ptr<GraphDatabase> db;
  for (int k = 0; k <= kAnalyticSetups / 2; ++k) {
    db.reset();
    db = set_up();
    if (db == nullptr) return report;
  }
  db->options().parallel_workers = kAnalyticWorkers;

  AnalyticReadGenerator reader(spec, config.seed);
  AnalyticWriteGenerator writer(spec, config.seed);
  Tracer tracer(config.trace);
  std::map<std::string, double> layer;
  AnalyticWindow w;
  {
    Result<GraphDatabase::ReadSession> session = db->BeginReadSession();
    if (!session.ok()) {
      Fail(&report, "read session: " + session.status().message());
      return report;
    }
    for (int i = 0; i < 40; ++i) {  // warm the pool and the plan cache
      Statement s = reader.Next();
      if (!session->Execute(s.text, s.params).ok()) {
        Fail(&report, "warm-up read failed: " + s.text);
        return report;
      }
    }
    if (!config.trace) {
      w = RunAnalyticWindow(db.get(), &*session, &reader, &writer,
                            config.seconds, nullptr, &report);
    } else {
      AnalyticWindow before_plain = RunAnalyticWindow(
          db.get(), &*session, &reader, &writer, config.seconds / 4, nullptr,
          &report);
      PlanCacheStats before = db->plan_cache().Stats();
      w = RunAnalyticWindow(db.get(), &*session, &reader, &writer,
                            config.seconds / 2, &tracer, &report);
      PlanCacheStats after = db->plan_cache().Stats();
      AnalyticWindow after_plain = RunAnalyticWindow(
          db.get(), &*session, &reader, &writer, config.seconds / 4, nullptr,
          &report);
      EmitCacheDeltas(before, after, w.reads + w.writes, &layer);
      layer["harness.tracing_overhead"] = TracingOverhead(
          before_plain.reads + after_plain.reads,
          before_plain.elapsed_s + after_plain.elapsed_s, w.reads, w.elapsed_s);
      auto spans = tracer.Stats();
      SpanMean(spans, "cypher.execute", "cypher.execute_us", &layer);
      SpanMean(spans, "graph.refresh", "graph.refresh_us", &layer);
      layer["graph.retired_pending_max"] = static_cast<double>(w.retired_max);
      layer["graph.epochs_per_s"] = w.epochs_per_s;
      layer["harness.gen_late_p99_us"] = Percentile(w.late_us, 0.99);

      AnalyticReadGenerator sample_reader(spec, config.seed + 1);
      AnalyticWriteGenerator sample_writer(spec, config.seed + 1);
      std::vector<Statement> sample;
      for (int i = 0; i < 200; ++i) {
        sample.push_back(sample_reader.Next());
        sample.push_back(sample_writer.Next());
      }
      MeasureFrontEnd(sample, &layer, &report);

      // Per class, on the pinned session: vm vs interpreter tier, and one
      // worker vs the workload's three.
      session->Refresh();
      constexpr int kPerClass = 8;
      for (int cls = 0; cls < kAnalyticClasses; ++cls) {
        std::vector<Statement> stmts;
        for (int i = 0; i < kPerClass; ++i) stmts.push_back(sample_reader.Make(cls));
        auto run_all = [&] {
          for (const Statement& s : stmts) (void)session->Execute(s.text, s.params);
        };
        run_all();  // warm
        std::string name = kClassNames[cls + 1];
        double vm_us = ElapsedUs(run_all) / kPerClass;
        db->options().use_plan_cache = false;
        layer["exec.interp_read_us." + name] = ElapsedUs(run_all) / kPerClass;
        db->options().use_plan_cache = true;
        db->options().parallel_workers = 1;
        run_all();
        double serial_us = ElapsedUs(run_all) / kPerClass;
        db->options().parallel_workers = kAnalyticWorkers;
        layer["exec.vm_read_us." + name] = vm_us;
        layer["exec.parallel_gain." + name] = serial_us / vm_us;
        double rows = 0;
        for (const Statement& s : stmts) {
          Result<double> r = RowsPerResult(db.get(), s);
          if (!r.ok()) {
            Fail(&report, "PROFILE failed: " + r.status().message());
            break;
          }
          rows += *r;
        }
        layer["match.rows_per_result." + name] = rows / kPerClass;
      }
      WriteTrace(config, tracer);
    }
  }
  while (setups.size() < kAnalyticSetups) {
    if (set_up() == nullptr) return report;
  }
  report.attempted = w.reads + w.writes;
  report.failed = w.failed;
  if (config.trace) {
    Emit(LayerNames(), layer, &report);
  } else {
    report.lines.push_back(
        "analytic writer: open loop at " + Fixed(kAnalyticWriteRate, 0) +
        "/s, generator late p99 = " + Fixed(Percentile(w.late_us, 0.99)) +
        " us, execute p50 = " + Fixed(Percentile(w.exec_us, 0.5)) +
        " us, late p50 = " + Fixed(Percentile(w.late_us, 0.5)) +
        " us; reader: closed loop, " + std::to_string(kAnalyticWorkers) +
        " workers");
    for (int cls = 0; cls < kAnalyticClasses; ++cls) {
      report.lines.push_back(
          std::string("analytic read class ") + kClassNames[cls + 1] +
          ": p50 = " + Fixed(Percentile(w.per_class_us[cls], 0.5)) +
          " us, p99 = " + Fixed(Percentile(w.per_class_us[cls], 0.99)) +
          " us (n=" + std::to_string(w.per_class_us[cls].size()) + ")");
    }
    EmitEndToEnd("analytic", setups,
                 (w.reads + w.writes) / w.elapsed_s, w.read, w.write, &report);
  }
  return report;
}

// ==== ingest_replicated ==========================================================

namespace {

GraphSpec IngestSpec() {
  GraphSpec spec;
  spec.users = 20000;
  spec.products = 5000;
  spec.follows_per_user = 2;
  spec.orders_per_user = 2;
  return spec;
}

constexpr int kIngestWriters = 2;
constexpr double kIngestWarmupSeconds = 1.5;
constexpr uint64_t kAutoCheckpointBytes = 64ull << 20;
constexpr auto kProbeInterval = std::chrono::microseconds(50);

/// A durable leader with one socket follower. Members are declared so that
/// destruction kills the follower, then stops the server, then drops the
/// database.
struct Leader {
  std::unique_ptr<GraphDatabase> db;
  TimingLogFile* timing = nullptr;  // owned by db's WAL when traced
  std::string wal_path;
  cypher::replication::SocketReplicationServer server;
  std::unique_ptr<FollowerProcess> follower;
  double bootstrap_ms = 0;

  ~Leader() {
    follower.reset();
    server.Stop();
  }
};

uint64_t AckedLsn(const cypher::ReplicationStatus& status) {
  return status.detail.empty() ? 0 : status.detail[0].acked_lsn;
}

Result<std::unique_ptr<Leader>> StartLeader(const RunConfig& config,
                                            const RunDir& dir, int k,
                                            Tracer* tracer) {
  auto leader = std::make_unique<Leader>();
  leader->db = std::make_unique<GraphDatabase>();
  CYPHER_RETURN_NOT_OK(BuildGraph(leader->db.get(), IngestSpec(), config.seed));
  std::string tag = std::to_string(k);
  leader->wal_path = dir.File("leader" + tag + ".wal");
  CYPHER_ASSIGN_OR_RETURN(std::unique_ptr<cypher::storage::LogFile> file,
                          cypher::storage::OpenPosixLogFile(leader->wal_path));
  if (config.trace) {
    auto timing = std::make_unique<TimingLogFile>(std::move(file), tracer);
    leader->timing = timing.get();
    file = std::move(timing);
  }
  cypher::DurabilityOptions durability;
  durability.sync_mode = cypher::DurabilityOptions::SyncMode::kGroupCommit;
  durability.auto_checkpoint_bytes = kAutoCheckpointBytes;
  CYPHER_RETURN_NOT_OK(leader->db->OpenDurable(std::move(file), durability));
  std::string socket = dir.File("repl" + tag + ".sock");
  CYPHER_RETURN_NOT_OK(leader->server.Start(
      leader->db.get(), cypher::replication::Endpoint::Unix(socket),
      cypher::ReplicationOptions{}, cypher::replication::SocketOptions{}));
  uint64_t target = leader->db->wal_writer()->appended_lsn();
  Clock::time_point spawned = Clock::now();
  CYPHER_ASSIGN_OR_RETURN(
      leader->follower,
      FollowerProcess::Spawn(config.replica_bin, "unix:" + socket,
                             dir.File("follower" + tag + ".wal"),
                             dir.File("follower" + tag + ".meta")));
  dir.NoteChild(leader->follower->pid());
  // Bootstrap is done when the follower acks the attach position; the wait
  // follows the follower's own progress. replication_status() reads the
  // shipper the server thread creates on the first attach without a lock,
  // so it is only called once the server (under its own lock) reports that
  // attach.
  Clock::time_point deadline = spawned + std::chrono::seconds(60);
  auto bootstrapped = [&] {
    return leader->server.stats().attaches > 0 &&
           AckedLsn(leader->db->replication_status()) >= target;
  };
  while (!bootstrapped()) {
    if (Clock::now() > deadline) {
      return Status::Aborted("follower did not bootstrap within 60 s");
    }
    std::this_thread::sleep_for(kProbeInterval);
  }
  leader->bootstrap_ms = MicrosBetween(spawned, Clock::now()) / 1e3;
  return leader;
}

struct IngestWindow {
  uint64_t statements = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  ClassLatency write{"write", 0.90, {}};
  ClassLatency lag{"repl_lag", 0.90, {}};
  std::vector<double> ack_lag_bytes, ship_lag_bytes;
  double follower_cpu_us = 0;
};

/// Both writers for `seconds`, the main thread probing replication_status()
/// for the follower's ack of each commit; then drains to a caught-up
/// follower so every commit in the window has its lag sample.
IngestWindow RunIngestWindow(Leader* leader,
                             std::vector<IngestGenerator>* gens,
                             double seconds, Tracer* tracer, Report* report) {
  IngestWindow w;
  GraphDatabase* db = leader->db.get();
  std::mutex mu;  // guards pending, w.write, w.failed, report
  std::deque<std::pair<uint64_t, Clock::time_point>> pending;
  double cpu_before = leader->follower->CpuMicros();
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::atomic<int> running{kIngestWriters};
  std::vector<std::thread> writers;
  for (int i = 0; i < kIngestWriters; ++i) {
    writers.emplace_back([&, i] {
      IngestGenerator& gen = (*gens)[i];
      while (Clock::now() < end) {
        Statement s = gen.Next();
        Clock::time_point t0 = Clock::now();
        Result<QueryResult> r = [&] {
          Tracer::Scope span(tracer, "cypher.execute");
          return db->Execute(s.text);
        }();
        std::lock_guard<std::mutex> lock(mu);
        Clock::time_point t1 = Clock::now();
        ++w.statements;
        if (!r.ok()) {
          ++w.failed;
          w.write.us.push_back(kFailedLatencyUs);
          report->lines.push_back("failed: " + r.status().message());
          continue;
        }
        w.write.us.push_back(MicrosBetween(t0, t1));
        pending.emplace_back(db->wal_writer()->durable_lsn(), t1);
      }
      running.fetch_sub(1);
    });
  }
  Clock::time_point drain_deadline = end + std::chrono::seconds(60);
  Clock::time_point writers_done{};
  while (Clock::now() < drain_deadline) {
    cypher::ReplicationStatus status = [&] {
      Tracer::Scope span(tracer, "repl.status");
      return db->replication_status();
    }();
    uint64_t acked = AckedLsn(status);
    Clock::time_point now = Clock::now();
    bool idle = running.load() == 0;
    if (idle && writers_done == Clock::time_point{}) writers_done = now;
    {
      std::lock_guard<std::mutex> lock(mu);
      while (!pending.empty() && pending.front().first <= acked) {
        w.lag.us.push_back(MicrosBetween(pending.front().second, now));        pending.pop_front();
      }
      if (idle && pending.empty()) break;
    }
    if (tracer != nullptr && !idle && !status.detail.empty()) {
      // The cursors are read after durable_lsn and may already be past it.
      auto behind = [&](uint64_t lsn) {
        return static_cast<double>(
            status.durable_lsn > lsn ? status.durable_lsn - lsn : 0);
      };
      w.ack_lag_bytes.push_back(behind(acked));
      w.ship_lag_bytes.push_back(behind(status.detail[0].shipped_lsn));
    }
    std::this_thread::sleep_for(kProbeInterval);
  }
  for (std::thread& t : writers) t.join();
  if (!pending.empty()) {
    Fail(report, std::to_string(pending.size()) +
                     " commits never acked by the follower");
  }
  w.elapsed_s = std::chrono::duration<double>(writers_done - start).count();
  w.follower_cpu_us = leader->follower->CpuMicros() - cpu_before;
  return w;
}

void CheckReplicaAndRecovery(Leader* leader, Report* report) {
  std::string expected = cypher::DumpGraphCanonical(leader->db->graph());
  Result<std::string> follower_dump = leader->follower->Request("DUMP");
  if (!follower_dump.ok()) {
    Fail(report, "follower DUMP: " + follower_dump.status().message());
  } else if (*follower_dump != expected) {
    Fail(report, "follower dump differs from the leader's canonical dump");
  }
  std::ifstream in(leader->wal_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  Result<cypher::storage::RecoveredGraph> recovered =
      cypher::storage::RecoverGraph(bytes);
  if (!recovered.ok()) {
    Fail(report, "RecoverGraph: " + recovered.status().message());
  } else if (cypher::DumpGraphCanonical(recovered->graph) != expected) {
    Fail(report, "graph recovered from the leader WAL differs from the leader");
  }
}

}  // namespace

Report RunIngestReplicated(const RunConfig& config) {
  Report report;
  Result<std::unique_ptr<RunDir>> dir = RunDir::Create(config.run_root);
  if (!dir.ok()) {
    Fail(&report, dir.status().message());
    return report;
  }
  report.context = MachineContextJson((*dir)->path(), "fsync, group commit");
  Tracer tracer(config.trace);
  std::unique_ptr<Leader> leader;
  std::vector<double> setups, bootstraps;
  for (int k = 0; k < kIngestSetups; ++k) {
    leader.reset();
    Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Leader>> started =
        StartLeader(config, **dir, k, &tracer);
    setups.push_back(MicrosBetween(t0, Clock::now()) / 1e6);
    if (!started.ok()) {
      Fail(&report, "leader set-up: " + started.status().message());
      return report;
    }
    leader = std::move(*started);
    bootstraps.push_back(leader->bootstrap_ms);
  }

  std::vector<IngestGenerator> gens;
  for (int i = 0; i < kIngestWriters; ++i) {
    gens.emplace_back(IngestSpec(), config.seed, i, kIngestWriters);
  }
  // Warm-up, discarded: fills the plan cache and the retract window, and
  // lets the fresh follower through its first catch-up (it stalls for
  // hundreds of milliseconds on the first segments after bootstrap).
  RunIngestWindow(leader.get(), &gens, kIngestWarmupSeconds, nullptr, &report);
  if (!report.correct) return report;

  std::map<std::string, double> layer;
  IngestWindow w;
  if (!config.trace) {
    w = RunIngestWindow(leader.get(), &gens, config.seconds, nullptr, &report);
  } else {
    IngestWindow before_plain = RunIngestWindow(
        leader.get(), &gens, config.seconds / 4, nullptr, &report);
    PlanCacheStats before = leader->db->plan_cache().Stats();
    TimingLogFile::Counters io_before = leader->timing->counters();
    tracer.Clear();
    w = RunIngestWindow(leader.get(), &gens, config.seconds / 2, &tracer,
                        &report);
    PlanCacheStats after = leader->db->plan_cache().Stats();
    TimingLogFile::Counters io = leader->timing->counters();
    auto spans = tracer.Stats();
    IngestWindow after_plain = RunIngestWindow(
        leader.get(), &gens, config.seconds / 4, nullptr, &report);
    EmitCacheDeltas(before, after, w.statements, &layer);
    layer["harness.tracing_overhead"] = TracingOverhead(
        before_plain.statements + after_plain.statements,
        before_plain.elapsed_s + after_plain.elapsed_s, w.statements,
        w.elapsed_s);
    SpanMean(spans, "cypher.execute", "cypher.execute_us", &layer);
    double stmts = static_cast<double>(std::max<uint64_t>(1, w.statements));
    uint64_t append_bytes = io.append_bytes - io_before.append_bytes;
    uint64_t replace_bytes = io.replace_bytes - io_before.replace_bytes;
    layer["storage.fsyncs_per_commit"] = (io.syncs - io_before.syncs) / stmts;
    layer["storage.bytes_per_stmt"] = append_bytes / stmts;
    layer["storage.write_amp"] =
        append_bytes == 0 ? 0
                          : static_cast<double>(append_bytes + replace_bytes) /
                                append_bytes;
    layer["storage.rewrites"] = static_cast<double>(io.replaces - io_before.replaces);
    if (spans.count("storage.sync")) {
      const SpanStats& sync = spans["storage.sync"];
      layer["storage.fsync_p50_us"] = Percentile(sync.durations_us, 0.5);
      layer["storage.fsync_p99_us"] = Percentile(sync.durations_us, 0.99);
      if (spans.count("cypher.execute")) {
        layer["storage.fsync_share"] =
            sync.total_us / spans["cypher.execute"].total_us;
      }
    }
    if (spans.count("storage.replace")) {
      const SpanStats& replace = spans["storage.replace"];
      layer["storage.rewrite_ms"] = replace.total_us / replace.count / 1e3;
    }
    layer["repl.ack_lag_bytes_p50"] = Percentile(w.ack_lag_bytes, 0.5);
    layer["repl.ack_lag_bytes_p99"] = Percentile(w.ack_lag_bytes, 0.99);
    layer["repl.ship_lag_bytes_p99"] = Percentile(w.ship_lag_bytes, 0.99);
    layer["repl.follower_cpu_us_per_stmt"] = w.follower_cpu_us / stmts;
    layer["repl.bootstrap_ms"] = Median(bootstraps);

    std::vector<IngestGenerator> sample_gens;
    sample_gens.emplace_back(IngestSpec(), config.seed + 1, 0, kIngestWriters);
    std::vector<Statement> sample;
    for (int i = 0; i < 200; ++i) sample.push_back(sample_gens[0].Next());
    MeasureFrontEnd(sample, &layer, &report);
    WriteTrace(config, tracer);
  }

  cypher::ReplicationStatus status = leader->db->replication_status();
  uint64_t resends = 0, reconnects = 0;
  for (const cypher::FollowerInfo& f : status.detail) {
    resends += f.resends;
    reconnects += f.link.reconnects;
  }
  layer["repl.resends"] = static_cast<double>(resends);
  layer["repl.reconnects"] = static_cast<double>(reconnects);
  layer["repl.stale_detaches"] = static_cast<double>(status.stale_detaches);
  report.lines.push_back(
      "ingest_replicated replication retries: resends=" +
      std::to_string(resends) + " reconnects=" + std::to_string(reconnects) +
      " stale_detaches=" + std::to_string(status.stale_detaches) +
      "; bootstrap_ms median=" + Fixed(Median(bootstraps)) +
      "; lag probe interval=" +
      std::to_string(std::chrono::microseconds(kProbeInterval).count()) + " us");
  CheckReplicaAndRecovery(leader.get(), &report);

  report.attempted = w.statements;
  report.failed = w.failed;
  if (config.trace) {
    Emit(LayerNames(), layer, &report);
  } else {
    EmitEndToEnd("ingest_replicated", setups,
                 w.statements / w.elapsed_s, w.write, w.lag, &report);
  }
  return report;
}

}  // namespace perfbench
