// dynaprox_chaos: deterministic chaos harness (docs/failure-modes.md,
// "Chaos layer"). Builds the full in-process stack — a 3-node edge
// cluster with shared BEM, parallel block execution, and push-based
// refresh — runs a seeded Zipf workload while fault points at every seam
// are armed, and checks the chaos invariants:
//
//   1. Every clean 200 is byte-identical to the fault-free oracle.
//   2. Every failure is classifiable (502, 503 + Retry-After, stale 200 +
//      Warning, origin 500) — nothing corrupt, nothing mystery.
//   3. Conservation: every request is classified exactly once and the
//      tier counters agree.
//   4. After disarming, the cluster recovers to clean identical 200s.
//
//   ./dynaprox_chaos [--seed=42] [--requests=600] [--workers=3]
//       [--chaos=point=prob:action[:param],...] [--verbose]
//
// With no --chaos, a built-in rotation of specs arms every
// in-process-reachable seam. A final ingress stage then puts the cluster
// behind a real multi-worker epoll server (--workers event loops,
// SO_REUSEPORT sharded where supported) and storms it over loopback with
// the net.accept seam armed — the one seam DirectTransport cannot reach.
// Exits 0 when all invariants hold, 1 otherwise; the same --seed always
// replays the same injection sequence, so a failure reproduces exactly.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "appserver/origin_server.h"
#include "appserver/push_engine.h"
#include "appserver/script_registry.h"
#include "bem/monitor.h"
#include "common/clock.h"
#include "common/fault_point.h"
#include "common/flags.h"
#include "common/rng.h"
#include "dpc/proxy.h"
#include "edge/cluster.h"
#include "net/byte_meter.h"
#include "net/connection_pool.h"
#include "net/epoll_server.h"
#include "net/server_limits.h"
#include "net/transport.h"
#include "storage/table.h"

using namespace dynaprox;

namespace {

constexpr int kPages = 6;

std::string PagePath(int n) { return "/page/" + std::to_string(n); }

void RegisterPages(appserver::ScriptRegistry* registry) {
  for (int n = 0; n < kPages; ++n) {
    registry->RegisterOrReplace(
        PagePath(n), [n](appserver::ScriptContext& context) {
          context.Emit("[p" + std::to_string(n) + "]");
          Status status = context.CacheableBlock(
              bem::FragmentId("blk", {{"n", std::to_string(n)}}),
              [n](appserver::ScriptContext& ctx) {
                std::string row_key = "item-" + std::to_string(n);
                storage::Row row =
                    *(*ctx.repository()->GetTable("items"))->Get(row_key);
                ctx.DeclareDependency("items", row_key);
                ctx.Emit(row_key + "=" +
                         storage::ValueToString(row.at("v")));
                return Status::Ok();
              });
          context.Emit("[/p" + std::to_string(n) + "]");
          return status;
        });
  }
}

int ZipfPick(Rng& rng, int n) {
  double total = 0;
  for (int k = 0; k < n; ++k) total += 1.0 / (k + 1);
  double roll = rng.NextDouble() * total;
  for (int k = 0; k < n; ++k) {
    roll -= 1.0 / (k + 1);
    if (roll <= 0) return k;
  }
  return n - 1;
}

struct Tally {
  uint64_t clean_200 = 0;
  uint64_t stale_200 = 0;
  uint64_t origin_500 = 0;
  uint64_t error_502 = 0;
  uint64_t shed_503 = 0;
  uint64_t violations = 0;

  uint64_t total() const {
    return clean_200 + stale_200 + origin_500 + error_502 + shed_503 +
           violations;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  Result<int64_t> seed = flags->GetInt("seed", 42);
  Result<int64_t> requests = flags->GetInt("requests", 600);
  Result<int64_t> workers = flags->GetInt("workers", 3);
  for (const auto* r : {&seed, &requests, &workers}) {
    if (!r->ok()) {
      std::fprintf(stderr, "%s\n", r->status().ToString().c_str());
      return 2;
    }
  }
  bool verbose = flags->GetBool("verbose");
  std::string chaos_override = flags->GetString("chaos", "");

  // ---- Stack under test: 3-node cluster, shared BEM, push engine. ----
  chaos::FaultRegistry& registry = chaos::FaultRegistry::Instance();
  registry.DisarmAll();

  SimClock clock;
  storage::ContentRepository repository;
  storage::Table* items = repository.GetOrCreateTable("items");
  for (int n = 0; n < kPages; ++n) {
    items->Upsert("item-" + std::to_string(n),
                  {{"v", storage::Value(static_cast<double>(n) * 10)}});
  }
  appserver::ScriptRegistry scripts;
  RegisterPages(&scripts);

  bem::BemOptions bem_options;
  bem_options.capacity = 64;
  bem_options.clock = &clock;
  auto monitor = *bem::BackEndMonitor::Create(bem_options);
  monitor->AttachRepository(&repository);

  bem::PushPolicy policy;
  policy.min_score = 1.0;
  appserver::PushEngine engine(policy, &clock);
  monitor->SetObserver(&engine.scheduler());

  appserver::OriginOptions origin_options;
  origin_options.clock = &clock;
  origin_options.push_engine = &engine;
  origin_options.block_workers = 2;
  appserver::OriginServer origin(&scripts, &repository, monitor.get(),
                                 origin_options);
  engine.AttachOrigin(&origin);
  net::DirectTransport origin_transport(origin.AsHandler());

  net::ByteMeter peer_meter;
  edge::EdgeClusterOptions cluster_options;
  cluster_options.proxy.capacity = 64;
  cluster_options.proxy.clock = &clock;
  cluster_options.peer_meter = &peer_meter;
  edge::EdgeCluster cluster(&origin_transport, cluster_options);
  const std::vector<std::string> nodes = {"edge-1", "edge-2", "edge-3"};
  for (const std::string& node : nodes) {
    if (Status added = cluster.AddEdge(node); !added.ok()) {
      std::fprintf(stderr, "AddEdge: %s\n", added.ToString().c_str());
      return 2;
    }
  }
  engine.set_sink([&cluster](const std::string&, bem::DpcKey key,
                             const std::string& body, MicroTime age) {
    return cluster.ApplyPush(key, body, age);
  });

  // Oracle: same scripts/repository, independent BEM + origin + proxy.
  // Only consulted while every fault point is disarmed.
  auto oracle_monitor = *bem::BackEndMonitor::Create(bem_options);
  oracle_monitor->AttachRepository(&repository);
  appserver::OriginOptions oracle_origin_options;
  oracle_origin_options.clock = &clock;
  appserver::OriginServer oracle_origin(&scripts, &repository,
                                        oracle_monitor.get(),
                                        oracle_origin_options);
  net::DirectTransport oracle_transport(oracle_origin.AsHandler());
  dpc::ProxyOptions oracle_options;
  oracle_options.capacity = 64;
  oracle_options.clock = &clock;
  dpc::DpcProxy oracle_proxy(&oracle_transport, oracle_options);

  auto compute_oracle = [&] {
    std::vector<std::string> oracle;
    for (int n = 0; n < kPages; ++n) {
      http::Request request;
      request.target = PagePath(n);
      oracle.push_back(oracle_proxy.Handle(request).BodyText());
    }
    return oracle;
  };
  std::vector<std::string> oracle = compute_oracle();

  // ---- The storm. ----
  std::vector<std::string> phases;
  if (!chaos_override.empty()) {
    phases = {chaos_override};
  } else {
    phases = {
        "dpc.upstream=0.15:error,bem.directory.insert=0.1:error,"
        "edge.peer_fetch=0.4:error",
        "",
        "dpc.upstream=0.1:garbage,bem.block.generate=0.15:error,"
        "bem.directory.evict=0.5:error",
        "dpc.upstream=0.05:delay-ms:1,bem.push.admit=0.5:error,"
        "bem.push.post=0.5:error,edge.peer_fetch=0.2:error,"
        "edge.push.replay=1:error",
    };
  }

  Rng workload(static_cast<uint64_t>(*seed) ^ 0xD1CEu);
  std::vector<std::string> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back("client" + std::to_string(i));
  }

  Tally tally;
  uint64_t sent = 0;
  const uint64_t per_phase =
      static_cast<uint64_t>(*requests) / phases.size();
  for (size_t phase = 0; phase < phases.size(); ++phase) {
    Status armed =
        registry.Arm(phases[phase], static_cast<uint64_t>(*seed) + phase);
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos: %s\n", armed.ToString().c_str());
      return 2;
    }
    for (uint64_t i = 0; i < per_phase; ++i) {
      int page = ZipfPick(workload, kPages);
      http::Request request;
      request.target = PagePath(page);
      request.headers.Add(
          "X-Client",
          clients[workload.NextBounded(clients.size())]);
      http::Response response = cluster.Handle(request);
      ++sent;
      switch (response.status_code) {
        case 200:
          if (response.headers.Has("Warning")) {
            ++tally.stale_200;
          } else if (response.BodyText() == oracle[page]) {
            ++tally.clean_200;
          } else {
            ++tally.violations;
            std::fprintf(stderr,
                         "VIOLATION: clean 200 for %s diverges from the "
                         "fault-free oracle\n",
                         request.target.c_str());
          }
          break;
        case 500:
          ++tally.origin_500;
          break;
        case 502:
          ++tally.error_502;
          break;
        case 503:
          if (response.headers.Has("Retry-After")) {
            ++tally.shed_503;
          } else {
            ++tally.violations;
            std::fprintf(stderr, "VIOLATION: 503 without Retry-After\n");
          }
          break;
        default:
          ++tally.violations;
          std::fprintf(stderr, "VIOLATION: unclassifiable status %d\n",
                       response.status_code);
      }
      clock.AdvanceMicros(500);
      // Content-preserving invalidations keep the render, insert, and
      // push seams hot after warmup: a same-value Upsert invalidates the
      // fragment (the update bus fires regardless) but the re-rendered
      // bytes match the oracle, so the byte-identity invariant stands.
      if (i % 20 == 19) {
        int n = ZipfPick(workload, kPages);
        items->Upsert("item-" + std::to_string(n),
                      {{"v", storage::Value(static_cast<double>(n) * 10)}});
        engine.Drain();
      }
    }
    // Bounce a node so any recorded pushes replay to a failover owner —
    // with edge.push.replay armed, the replay seam fires too.
    const std::string& bounce = nodes[phase % nodes.size()];
    (void)cluster.MarkDown(bounce);
    (void)cluster.MarkUp(bounce);
  }

  // ---- Conservation. ----
  bool ok = tally.violations == 0;
  if (tally.total() != sent || cluster.stats().requests != sent) {
    ok = false;
    std::fprintf(stderr,
                 "VIOLATION: conservation — classified %llu, cluster saw "
                 "%llu, sent %llu\n",
                 static_cast<unsigned long long>(tally.total()),
                 static_cast<unsigned long long>(cluster.stats().requests),
                 static_cast<unsigned long long>(sent));
  }

  // ---- Recovery: disarm, recompute the oracle, demand clean 200s. ----
  registry.DisarmAll();
  oracle = compute_oracle();
  uint64_t recovery_failures = 0;
  for (int i = 0; i < 120; ++i) {
    int page = ZipfPick(workload, kPages);
    http::Request request;
    request.target = PagePath(page);
    request.headers.Add(
        "X-Client", clients[workload.NextBounded(clients.size())]);
    http::Response response = cluster.Handle(request);
    if (response.status_code != 200 ||
        response.headers.Has("Warning") ||
        response.BodyText() != oracle[page]) {
      ++recovery_failures;
    }
  }
  if (recovery_failures > 0) {
    ok = false;
    std::fprintf(stderr,
                 "VIOLATION: %llu requests still degraded after disarm\n",
                 static_cast<unsigned long long>(recovery_failures));
  }

  // ---- Eviction stage: a dedicated small directory under pressure. ----
  // Fragment-key reuse across an edge cluster is a trust boundary (see
  // docs/failure-modes.md), so the shared stack above runs without
  // eviction churn; the insert/evict seams get their storm here against
  // a single origin, where degrading to an uncached emit is the full
  // correctness story.
  if (chaos_override.empty()) {
    Status armed = registry.Arm(
        "bem.directory.insert=0.5:error,bem.directory.evict=0.5:error",
        static_cast<uint64_t>(*seed) + phases.size());
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos: %s\n", armed.ToString().c_str());
      return 2;
    }
    bem::BemOptions small = bem_options;
    small.capacity = 2;
    auto small_monitor = *bem::BackEndMonitor::Create(small);
    small_monitor->AttachRepository(&repository);
    appserver::OriginOptions small_origin_options;
    small_origin_options.clock = &clock;
    appserver::OriginServer small_origin(&scripts, &repository,
                                         small_monitor.get(),
                                         small_origin_options);
    net::DirectTransport small_transport(small_origin.AsHandler());
    dpc::ProxyOptions small_proxy_options;
    small_proxy_options.capacity = 64;
    small_proxy_options.clock = &clock;
    dpc::DpcProxy small_proxy(&small_transport, small_proxy_options);
    for (int i = 0; i < 48; ++i) {
      int page = ZipfPick(workload, kPages);
      http::Request request;
      request.target = PagePath(page);
      http::Response response = small_proxy.Handle(request);
      // Whether the insert succeeded, failed, or required a faulted
      // eviction, the assembled page must match the fault-free bytes.
      if (response.status_code != 200 ||
          response.BodyText() != oracle[page]) {
        ok = false;
        std::fprintf(stderr,
                     "VIOLATION: eviction-stage page diverges "
                     "(status %d)\n",
                     response.status_code);
      }
    }
    registry.DisarmAll();
  }

  // ---- Ingress stage: real TCP through a multi-worker epoll front. ----
  // Everything above rides DirectTransport, which skips the socket layer
  // entirely — so the net.accept seam never fires in-process. Here the
  // recovered cluster goes behind an EpollServer with --workers event
  // loops (SO_REUSEPORT sharded listeners where the kernel supports it)
  // and takes a loopback storm with the accept seam armed. Invariants:
  // every response that gets through matches the oracle byte-for-byte, a
  // casualty is only ever a clean transport-level refusal, the per-worker
  // ingress mirrors sum to the shared totals, and a graceful drain leaves
  // nothing open.
  uint64_t ingress_clean = 0;
  uint64_t ingress_refused = 0;
  bool ingress_sharded = false;
  if (*workers > 0) {
    net::IngressCounters ingress_totals;
    net::ServerLimits ingress_limits;
    ingress_limits.counters = &ingress_totals;
    net::EpollServer ingress(
        [&cluster](const http::Request& request) {
          return cluster.Handle(request);
        },
        0, static_cast<int>(*workers), ingress_limits);
    if (Status started = ingress.Start(); !started.ok()) {
      std::fprintf(stderr, "ingress: %s\n", started.ToString().c_str());
      return 2;
    }
    ingress_sharded = ingress.reuseport_sharded();
    Status armed =
        registry.Arm("net.accept=0.25:error",
                     static_cast<uint64_t>(*seed) + phases.size() + 1);
    if (!armed.ok()) {
      std::fprintf(stderr, "--chaos: %s\n", armed.ToString().c_str());
      return 2;
    }
    net::PooledTransportOptions client_options;
    client_options.pool.io_timeout_micros = 2 * kMicrosPerSecond;
    // Fresh connection per request: each round trip crosses the accept
    // seam again, on whichever worker the kernel hashes it to. A failure
    // on a freshly dialed connection is never retried, so each faulted
    // accept is one refusal.
    for (int i = 0; i < 64; ++i) {
      int page = ZipfPick(workload, kPages);
      http::Request request;
      request.target = PagePath(page);
      net::PooledClientTransport client("127.0.0.1", ingress.port(),
                                        client_options);
      Result<http::Response> response = client.RoundTrip(request);
      if (!response.ok()) {
        // The faulted accept closes the admitted fd before service; the
        // client sees a reset — a clean refusal, never a corrupt reply.
        ++ingress_refused;
      } else if (response->status_code == 200 &&
                 response->BodyText() == oracle[page]) {
        ++ingress_clean;
      } else {
        ok = false;
        std::fprintf(stderr,
                     "VIOLATION: ingress-stage reply for %s diverges "
                     "(status %d)\n",
                     request.target.c_str(), response->status_code);
      }
    }
    registry.DisarmAll();
    if (ingress_refused == 0) {
      ok = false;
      std::fprintf(stderr,
                   "VIOLATION: net.accept armed at p=0.25 over 64 "
                   "accepts never fired\n");
    }
    // Recovery over real TCP: seam disarmed, every request clean again.
    for (int i = 0; i < 16; ++i) {
      int page = ZipfPick(workload, kPages);
      http::Request request;
      request.target = PagePath(page);
      net::PooledClientTransport client("127.0.0.1", ingress.port(),
                                        client_options);
      Result<http::Response> response = client.RoundTrip(request);
      if (!response.ok() || response->status_code != 200 ||
          response->BodyText() != oracle[page]) {
        ok = false;
        std::fprintf(stderr,
                     "VIOLATION: ingress still degraded after disarm\n");
      }
    }
    ingress.Stop(/*drain_timeout_micros=*/2 * kMicrosPerSecond);
    uint64_t accepted_sum = 0;
    for (int w = 0; w < ingress.worker_count(); ++w) {
      accepted_sum += ingress.worker_ingress(w).accepted_total.load();
    }
    if (accepted_sum != ingress_totals.accepted_total.load()) {
      ok = false;
      std::fprintf(stderr,
                   "VIOLATION: per-worker accepts (%llu) do not sum to "
                   "the shared total (%llu)\n",
                   static_cast<unsigned long long>(accepted_sum),
                   static_cast<unsigned long long>(
                       ingress_totals.accepted_total.load()));
    }
    if (ingress_totals.open_connections.load() != 0) {
      ok = false;
      std::fprintf(stderr,
                   "VIOLATION: %lld connections still open after drain\n",
                   static_cast<long long>(
                       ingress_totals.open_connections.load()));
    }
  }

  // ---- Report. ----
  std::printf(
      "chaos storm: %llu requests (seed %lld): %llu clean 200, %llu "
      "stale 200, %llu origin 500, %llu 502, %llu 503, %llu violations; "
      "recovery clean\n",
      static_cast<unsigned long long>(sent),
      static_cast<long long>(*seed),
      static_cast<unsigned long long>(tally.clean_200),
      static_cast<unsigned long long>(tally.stale_200),
      static_cast<unsigned long long>(tally.origin_500),
      static_cast<unsigned long long>(tally.error_502),
      static_cast<unsigned long long>(tally.shed_503),
      static_cast<unsigned long long>(tally.violations));
  if (*workers > 0) {
    std::printf(
        "ingress storm: %lld epoll workers (%s): %llu clean 200, %llu "
        "accept refusals, drained clean\n",
        static_cast<long long>(*workers),
        ingress_sharded ? "SO_REUSEPORT sharded" : "shared listener",
        static_cast<unsigned long long>(ingress_clean),
        static_cast<unsigned long long>(ingress_refused));
  }
  std::printf("fault points fired:\n");
  for (const auto& [point, fired] : registry.FiredCounts()) {
    if (fired > 0 || verbose) {
      std::printf("  %-24s %llu\n", point.c_str(),
                  static_cast<unsigned long long>(fired));
    }
  }
  if (verbose) {
    for (const std::string& line : registry.InjectionLog()) {
      std::printf("  log: %s\n", line.c_str());
    }
  }
  registry.DisarmAll();
  if (!ok) {
    std::fprintf(stderr, "chaos invariants VIOLATED\n");
    return 1;
  }
  std::printf("all chaos invariants hold\n");
  return 0;
}
