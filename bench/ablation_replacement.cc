// Ablation: replacement policy (lru vs fifo vs clock) under a constrained
// dpcKey space. DESIGN.md calls out the replacement manager as a design
// choice; this bench shows its effect on hit ratio and origin bytes when
// the directory is capacity-bound.

#include <cstdio>

#include "analytical/model.h"
#include "bench_util.h"
#include "sim/testbed.h"

int main() {
  using namespace dynaprox;

  analytical::ModelParams params =
      analytical::ModelParams::Table2Baseline();
  // Stress the key space: more pages than the default, tiny capacity.
  params.num_pages = 40;
  benchutil::PrintHeader("Ablation", "Replacement policy under key pressure",
                         params);

  std::printf("%8s %10s %14s %14s %12s %12s\n", "policy", "capacity",
              "hitRatio", "evictions", "payloadB", "recoveries");
  for (bem::DpcKey capacity : {64u, 128u, 256u, 1024u}) {
    for (const char* policy : {"lru", "fifo", "clock"}) {
      sim::TestbedConfig config;
      config.params = params;
      config.with_cache = true;
      config.capacity = capacity;
      config.replacement_policy = policy;
      config.seed = 3;
      auto testbed = sim::Testbed::Create(config);
      if (!testbed.ok()) {
        std::printf("setup failed: %s\n",
                    testbed.status().ToString().c_str());
        return 1;
      }
      (*testbed)->Run(2000);
      (*testbed)->BeginMeasurement();
      (*testbed)->Run(8000);
      sim::Measurement m = (*testbed)->Collect();
      std::printf("%8s %10llu %14.4f %14llu %12llu %12llu\n", policy,
                  static_cast<unsigned long long>(capacity),
                  m.RealizedHitRatio(),
                  static_cast<unsigned long long>(
                      (*testbed)->monitor()->stats().evictions),
                  static_cast<unsigned long long>(m.response_payload_bytes),
                  static_cast<unsigned long long>(
                      (*testbed)->proxy()->stats().recoveries));
    }
  }
  std::printf(
      "expectation: at tight capacities LRU/clock keep live fragment "
      "versions over dead ones and beat FIFO; all converge when capacity "
      "clears the working set\n");
  benchutil::PrintFooter();
  return 0;
}
