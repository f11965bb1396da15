// Interactive shell over the engine: type Cypher statements, switch update
// semantics on the fly, and inspect the graph.
//
//   ./cypher_shell
//
// Meta commands:
//   :help                     this text
//   :legacy | :revised        switch update semantics (default revised)
//   :order forward|reverse|shuffle [seed]
//                             legacy executors' driving-table scan order
//   :variant atomic|grouping|weak|collapse|strong|off
//                             run bare MERGE with a Section 6 variant
//   :homo | :trail            pattern matching mode
//   :dump                     print the graph in serialized form
//   :save <path> | :load <path>
//                             persist / restore the graph (dump format)
//   :dot                      print the graph in Graphviz DOT
//   :stats                    node/relationship counts
//   :timeout <ms>             per-statement watchdog deadline (0 = off)
//   :wal <path>               attach a write-ahead log (recovers if present)
//   :checkpoint               append a fresh snapshot to the log
//   :replicate                attach an in-process read-only follower
//                             (requires :wal; follower tails every commit)
//   :replicate detach <id>    detach a follower (releases its WAL retention)
//   :serve <endpoint>         serve replication on a socket (tcp:host:port
//                             or unix:path) so follower processes — e.g.
//                             replica_server — can attach; requires :wal
//   :serve stop               stop serving (abrupt: how a leader dies)
//   :lag                      per-follower cursors, connection state,
//                             reconnects, heartbeat age, resend counts, and
//                             staleness-detach warnings
//   :cache                    plan-cache hit/miss/eviction counters
//   :cache clear              drop cached plans and reset the counters
//   :cache on|off             route statements through the plan cache
//   :clear                    drop the graph
//   :quit                     exit
//
// Everything else is executed as a Cypher statement.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cypher/database.h"
#include "exec/render.h"
#include "graph/serialize.h"
#include "replication/replica.h"
#include "replication/socket_transport.h"
#include "replication/transport.h"
#include "storage/log_file.h"

using cypher::CancelToken;
using cypher::EvalOptions;
using cypher::GraphDatabase;
using cypher::MatchMode;
using cypher::MergeVariant;
using cypher::ScanOrder;
using cypher::SemanticsMode;

namespace {

/// Per-statement watchdog budget; 0 disables. A CancelToken is one-shot
/// (it stays tripped), so the main loop mints a fresh one per statement.
int64_t g_timeout_ms = 0;

/// In-process followers attached via :replicate, keyed by the leader-side
/// follower id. Each tails the shell database's WAL; the main loop polls
/// them after every executed statement.
struct ShellFollower {
  int id;
  std::unique_ptr<cypher::replication::Replica> replica;
};
std::vector<ShellFollower> g_followers;

/// The socket replication server started by :serve (null when not serving).
std::unique_ptr<cypher::replication::SocketReplicationServer> g_server;

/// Drains shipped segments into every follower and returns acks to the
/// leader, so :lag reflects a settled steady state after each statement.
void PumpFollowers(GraphDatabase* db) {
  if (g_followers.empty()) return;
  (void)db->PumpReplication();
  for (ShellFollower& f : g_followers) {
    auto applied = f.replica->PollOnce();
    if (!applied.ok()) {
      std::printf("follower %d: %s\n", f.id,
                  applied.status().ToString().c_str());
    }
  }
  (void)db->PumpReplication();  // deliver the acks
}

void DropFollowers(GraphDatabase* db) {
  for (ShellFollower& f : g_followers) (void)db->DetachFollower(f.id);
  g_followers.clear();
}

bool HandleMeta(GraphDatabase* db, const std::string& line) {
  auto& options = db->options();
  if (line == ":help") {
    std::printf(
        ":legacy/:revised, :order forward|reverse|shuffle [seed],\n"
        ":variant atomic|grouping|weak|collapse|strong|off, :homo/:trail,\n"
        ":parallel <workers> [morsel], :timeout <ms>, :wal <path>,\n"
        ":checkpoint, :replicate [detach <id>], :serve <endpoint>|stop, :lag,\n"
        ":cache [clear|on|off], :dump, :dot, :stats, :clear, :quit\n");
    return true;
  }
  if (line.rfind(":timeout", 0) == 0) {
    g_timeout_ms = std::strtoll(line.c_str() + 8, nullptr, 10);
    if (g_timeout_ms > 0) {
      std::printf("watchdog: statements cancel after %lld ms\n",
                  static_cast<long long>(g_timeout_ms));
    } else {
      g_timeout_ms = 0;
      std::printf("watchdog off\n");
    }
    return true;
  }
  if (line.rfind(":wal ", 0) == 0) {
    auto file = cypher::storage::OpenPosixLogFile(line.substr(5));
    if (!file.ok()) {
      std::printf("%s\n", file.status().ToString().c_str());
      return true;
    }
    auto st = db->OpenDurable(std::move(*file));
    std::printf("%s\n", st.ok() ? "write-ahead log attached (graph recovered)"
                                : st.ToString().c_str());
    return true;
  }
  if (line == ":checkpoint") {
    auto st = db->Checkpoint();
    std::printf("%s\n", st.ok() ? "checkpoint written" : st.ToString().c_str());
    return true;
  }
  if (line == ":replicate") {
    auto transport = std::make_shared<cypher::replication::InProcessTransport>();
    auto replica = std::make_unique<cypher::replication::Replica>(transport);
    auto id = db->AttachFollower(transport);
    if (!id.ok()) {
      std::printf("%s\n", id.status().ToString().c_str());
      return true;
    }
    auto applied = replica->PollOnce();  // bootstrap from the snapshot frame
    if (!applied.ok()) {
      std::printf("%s\n", applied.status().ToString().c_str());
      (void)db->DetachFollower(*id);
      return true;
    }
    g_followers.push_back({*id, std::move(replica)});
    (void)db->PumpReplication();  // deliver the bootstrap ack
    std::printf("follower %d attached (bootstrapped at lsn %llu)\n", *id,
                static_cast<unsigned long long>(
                    g_followers.back().replica->applied_lsn()));
    return true;
  }
  if (line.rfind(":replicate detach", 0) == 0) {
    int id = static_cast<int>(std::strtol(line.c_str() + 17, nullptr, 10));
    auto it = std::find_if(g_followers.begin(), g_followers.end(),
                           [id](const ShellFollower& f) { return f.id == id; });
    if (it == g_followers.end()) {
      std::printf("no follower %d; :lag lists them\n", id);
      return true;
    }
    auto st = db->DetachFollower(id);
    g_followers.erase(it);
    std::printf("%s\n", st.ok() ? "detached (WAL retention released)"
                                : st.ToString().c_str());
    return true;
  }
  if (line.rfind(":serve", 0) == 0) {
    std::string arg = line.size() > 7 ? line.substr(7) : "";
    if (arg == "stop") {
      if (g_server == nullptr) {
        std::printf("not serving\n");
      } else {
        g_server->Stop();
        g_server.reset();
        std::printf("replication server stopped\n");
      }
      return true;
    }
    if (g_server != nullptr) {
      std::printf("already serving on %s; :serve stop first\n",
                  g_server->endpoint().ToString().c_str());
      return true;
    }
    auto endpoint = cypher::replication::Endpoint::Parse(arg);
    if (!endpoint.ok()) {
      std::printf("%s\n", endpoint.status().ToString().c_str());
      return true;
    }
    auto server =
        std::make_unique<cypher::replication::SocketReplicationServer>();
    auto st = server->Start(db, *endpoint, cypher::ReplicationOptions{},
                            cypher::replication::SocketOptions{});
    if (!st.ok()) {
      std::printf("%s\n", st.ToString().c_str());
      return true;
    }
    g_server = std::move(server);
    std::printf("serving replication on %s\n",
                g_server->endpoint().ToString().c_str());
    return true;
  }
  if (line == ":lag") {
    if (!db->replicating()) {
      std::printf("no followers; :replicate or :serve attaches them\n");
      return true;
    }
    auto status = db->replication_status();
    std::printf("leader: appended=%llu durable=%llu log=%llu bytes\n",
                static_cast<unsigned long long>(status.appended_lsn),
                static_cast<unsigned long long>(status.durable_lsn),
                static_cast<unsigned long long>(status.log_bytes));
    for (const cypher::FollowerInfo& f : status.detail) {
      std::string wire = cypher::replication::LinkStateName(f.link.state);
      if (f.link.reconnects > 0) {
        wire += ", " + std::to_string(f.link.reconnects) + " reconnect" +
                (f.link.reconnects == 1 ? "" : "s");
      }
      if (f.link.heartbeat_age_ms >= 0) {
        wire += ", heard " + std::to_string(f.link.heartbeat_age_ms) +
                "ms ago";
      }
      if (f.resends > 0) wire += ", " + std::to_string(f.resends) + " resends";
      std::printf("follower %d: acked=%llu shipped=%llu (lag %llu bytes) "
                  "[%s]\n",
                  f.id, static_cast<unsigned long long>(f.acked_lsn),
                  static_cast<unsigned long long>(f.shipped_lsn),
                  static_cast<unsigned long long>(status.appended_lsn -
                                                  f.acked_lsn),
                  wire.c_str());
    }
    // In-process replicas carry extra apply-side detail the wire ones
    // report over their own protocol.
    for (const ShellFollower& f : g_followers) {
      std::printf("  in-process %d: applied=%llu, %llu statement%s applied\n",
                  f.id,
                  static_cast<unsigned long long>(f.replica->applied_lsn()),
                  static_cast<unsigned long long>(
                      f.replica->statements_applied()),
                  f.replica->statements_applied() == 1 ? "" : "s");
    }
    if (status.stale_detaches > 0) {
      std::printf("stale detaches: %llu (last: %s)\n",
                  static_cast<unsigned long long>(status.stale_detaches),
                  status.last_stale_warning.c_str());
    }
    return true;
  }
  if (line.rfind(":parallel", 0) == 0) {
    char* end = nullptr;
    options.parallel_workers =
        std::strtoull(line.c_str() + 9, &end, 10);
    size_t morsel = std::strtoull(end, nullptr, 10);
    if (morsel > 0) options.parallel_morsel_size = morsel;
    // Shell graphs are tiny; drop the cost gate so the parallel path
    // actually engages instead of silently falling back to sequential.
    options.parallel_min_cost = options.parallel_workers > 0 ? 1 : 2048;
    std::printf("parallel: workers=%zu morsel=%zu (0 workers = sequential)\n",
                options.parallel_workers, options.parallel_morsel_size);
    return true;
  }
  if (line == ":legacy") {
    options.semantics = SemanticsMode::kLegacy;
    std::printf("update semantics: legacy (Cypher 9)\n");
    return true;
  }
  if (line == ":revised") {
    options.semantics = SemanticsMode::kRevised;
    std::printf("update semantics: revised (Sections 7-8)\n");
    return true;
  }
  if (line.rfind(":order", 0) == 0) {
    if (line.find("reverse") != std::string::npos) {
      options.scan_order = ScanOrder::kReverse;
    } else if (line.find("shuffle") != std::string::npos) {
      options.scan_order = ScanOrder::kShuffle;
      size_t space = line.rfind(' ');
      if (space != std::string::npos) {
        options.shuffle_seed = std::strtoull(line.c_str() + space, nullptr, 10);
      }
    } else {
      options.scan_order = ScanOrder::kForward;
    }
    std::printf("scan order updated\n");
    return true;
  }
  if (line.rfind(":variant", 0) == 0) {
    if (line.find("atomic") != std::string::npos) {
      options.plain_merge_variant = MergeVariant::kAtomic;
    } else if (line.find("grouping") != std::string::npos) {
      options.plain_merge_variant = MergeVariant::kGrouping;
    } else if (line.find("weak") != std::string::npos) {
      options.plain_merge_variant = MergeVariant::kWeakCollapse;
    } else if (line.find("strong") != std::string::npos) {
      options.plain_merge_variant = MergeVariant::kStrongCollapse;
    } else if (line.find("collapse") != std::string::npos) {
      options.plain_merge_variant = MergeVariant::kCollapse;
    } else {
      options.plain_merge_variant.reset();
    }
    std::printf("bare-MERGE variant: %s\n",
                options.plain_merge_variant
                    ? MergeVariantName(*options.plain_merge_variant)
                    : "off");
    return true;
  }
  if (line == ":homo") {
    options.match_mode = MatchMode::kHomomorphism;
    std::printf("matching: homomorphism\n");
    return true;
  }
  if (line == ":trail") {
    options.match_mode = MatchMode::kRelUnique;
    std::printf("matching: relationship-unique (trail)\n");
    return true;
  }
  if (line == ":dump") {
    std::printf("%s", DumpGraph(db->graph()).c_str());
    return true;
  }
  if (line.rfind(":save ", 0) == 0) {
    auto st = db->SaveToFile(line.substr(6));
    std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
    return true;
  }
  if (line.rfind(":load ", 0) == 0) {
    auto st = db->LoadFromFile(line.substr(6));
    std::printf("%s\n", st.ok() ? "loaded" : st.ToString().c_str());
    return true;
  }
  if (line == ":dot") {
    std::printf("%s", ToDot(db->graph(), "shell").c_str());
    return true;
  }
  if (line == ":stats") {
    std::printf("%zu nodes, %zu relationships\n", db->graph().num_nodes(),
                db->graph().num_rels());
    return true;
  }
  if (line == ":schema") {
    const auto& g = db->graph();
    for (const auto& [label, key] : g.Indexes()) {
      std::printf("INDEX ON :%s(%s)\n", g.LabelName(label).c_str(),
                  g.KeyName(key).c_str());
    }
    for (const auto& [label, key] : g.UniqueConstraints()) {
      std::printf("CONSTRAINT ON (n:%s) ASSERT n.%s IS UNIQUE\n",
                  g.LabelName(label).c_str(), g.KeyName(key).c_str());
    }
    if (g.Indexes().empty() && g.UniqueConstraints().empty()) {
      std::printf("(no indexes or constraints)\n");
    }
    return true;
  }
  if (line == ":cache") {
    const cypher::PlanCacheStats stats = db->plan_cache().Stats();
    const cypher::SessionCacheCounters& session = db->session_cache_counters();
    std::printf(
        "plan cache: %s — %zu entr%s\n"
        "  global:       hits=%llu (raw=%llu shape=%llu) misses=%llu "
        "evictions=%llu\n"
        "  this session: hits=%llu misses=%llu\n",
        options.use_plan_cache ? "on" : "off", stats.entries,
        stats.entries == 1 ? "y" : "ies",
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.raw_hits),
        static_cast<unsigned long long>(stats.shape_hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(session.hits),
        static_cast<unsigned long long>(session.misses));
    return true;
  }
  if (line == ":cache clear") {
    db->plan_cache().Clear();
    db->plan_cache().ResetStats();
    db->ResetSessionCacheCounters();
    std::printf("plan cache cleared\n");
    return true;
  }
  if (line == ":cache on" || line == ":cache off") {
    options.use_plan_cache = line == ":cache on";
    std::printf("plan cache %s\n", options.use_plan_cache ? "on" : "off");
    return true;
  }
  if (line == ":clear") {
    if (g_server != nullptr) {
      // The server thread pumps this database; replacing it underneath
      // would be a use-after-move.
      std::printf("serving replication; :serve stop before :clear\n");
      return true;
    }
    // Followers tail the WAL being thrown away; detach them first so the
    // shipper's retention pins release before the database is replaced.
    DropFollowers(db);
    EvalOptions kept = db->options();
    *db = GraphDatabase(kept);
    std::printf("graph cleared\n");
    return true;
  }
  return false;
}

}  // namespace

int main() {
  GraphDatabase db;
  std::printf(
      "cypher-shell — property graph engine with revised update semantics\n"
      "type :help for meta commands, :quit to exit\n");
  std::string line;
  while (true) {
    std::printf("cypher> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == ":quit" || line == ":exit") break;
    if (line[0] == ':') {
      if (!HandleMeta(&db, line)) std::printf("unknown command; :help\n");
      continue;
    }
    // Mint a fresh token per statement (tokens are one-shot) and clear any
    // stale tripped token when the watchdog is off.
    db.options().cancel =
        g_timeout_ms > 0
            ? CancelToken::WithTimeout(std::chrono::milliseconds(g_timeout_ms))
            : CancelToken();
    auto result = db.Execute(line);
    if (!result.ok()) {
      // A watchdog abort surfaces as DeadlineExceeded/Aborted; either way
      // the statement rolled back and the graph is unchanged.
      std::printf("%s\n", result.status().ToString().c_str());
      continue;
    }
    std::string rendered = RenderResult(db.graph(), *result);
    std::printf("%s", rendered.empty() ? "OK\n" : rendered.c_str());
    // Commits auto-ship to attached followers; polling here keeps them
    // caught up statement by statement, so :lag normally reads zero.
    PumpFollowers(&db);
  }
  // The server thread holds a pointer to `db`; stop it before `db` dies
  // (the global's destructor would run too late).
  if (g_server != nullptr) {
    g_server->Stop();
    g_server.reset();
  }
  return 0;
}
