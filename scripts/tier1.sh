#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   1. plain build + the full ctest suite (includes the docs-link check
#      and the gcc fuzz-smoke corpus tests)
#   2. the perfbench binary compiles (Release) and one short run per
#      workload answers every request with the right bytes (no timing)
#   3. AddressSanitizer+UBSan over the memory-sensitive suites
#   4. ThreadSanitizer over the threaded server/integration suites
#   5. a fixed-seed chaos smoke: dynaprox_chaos under ASan, invariants
#      must hold (docs/failure-modes.md, "Chaos layer")
#
# Sanitizer passes run on suite subsets so the script stays usable on
# small (single-core) hosts; JOBS=<n> overrides the parallelism.
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

echo "== tier1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

# perfbench is a CMake project of its own (perfbench/README.md) that only
# perfbench/run.py builds, yet it compiles against the net/ and dpc/ APIs:
# it overrides both Transport virtuals and wires PooledClientTransport,
# EpollServer and ProxyOptions. Building it here keeps an API change from
# breaking the benchmark unnoticed.
echo "== tier1: perfbench build (Release) =="
cmake -B build-perfbench -S perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perfbench -j"$JOBS" --target perfbench

# A correctness smoke, not a measurement: one 1 s run per workload must
# report `correct` (every response byte-checked against the page it
# asked for) with no failed request. Overlapping upstream responses are
# where a stale splice shows, and only these runs drive the full stack
# at load. No timing threshold; measuring is left to run.py.
echo "== tier1: perfbench correctness smoke (1 s per workload) =="
for workload in hot_small large_page churn; do
  ./build-perfbench/perfbench --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("perfbench smoke: %s failed: %s" % (sys.argv[1], result))
print("perfbench smoke: %s correct, %d requests" %
      (sys.argv[1], result["attempted"]))
' "$workload"
done

# The streaming suites (dpc/streaming_scanner_test, http/streaming_reader
# _test, net/streaming_test, dpc/proxy_streaming_test) live inside these
# binaries, so split-boundary state and the chunk framing run under both
# sanitizers. All four fuzz smokes replay their corpora here too, so both
# parsers that take bytes from the network run under ASan: the template
# scanner (whole, and under random chunkings) and the HTTP framing decoder
# (requests fed whole, split and byte by byte; responses streamed against
# the whole-wire parse).
# bem_test and appserver_test cover the cache directory's invalidation
# step, which also erases the fragment's dependencies from the registry;
# InvalidateAll and SweepExpired run it with a key reference into the
# entry map they are iterating.
# edge_test, firewall_test, workload_test and baseline_test run every
# transport that wraps another (the fleet's header stamp, the cluster's
# metered peer channels, the scanning firewall) and the callers that
# drain whole responses through Transport::RoundTrip (the workload
# driver, the URL cache and ESI baselines), so each stream hand-off and
# StreamWhole/DrainWhole pair runs under ASan too.
echo "== tier1: ASan+UBSan (common/http/net/dpc/bem/appserver/edge/firewall/workload/baseline/integration/fuzz) =="
cmake -B build-asan -S . -DDYNAPROX_SANITIZE=address >/dev/null
cmake --build build-asan -j"$JOBS" --target \
  common_test http_test net_test dpc_test bem_test appserver_test \
  edge_test firewall_test workload_test baseline_test \
  integration_test fuzz_smoke_template fuzz_smoke_template_chunking \
  fuzz_smoke_http fuzz_smoke_http_response
ctest --test-dir build-asan --output-on-failure \
  -R '^(common_test|http_test|net_test|dpc_test|bem_test|appserver_test|edge_test|firewall_test|workload_test|baseline_test|integration_test|fuzz_smoke_template|fuzz_smoke_template_chunking|fuzz_smoke_http|fuzz_smoke_http_response)$'

# common_test carries the thread-pool suite, bem_test the striped
# directory/free-list/monitor hammers (plus the push scheduler), and
# appserver_test the parallel block-execution equivalence suite (pool
# sizes 0/1/4) — together with the multi-worker servers in net_test/
# integration_test and the edge-cluster peer channel in edge_test these
# are the concurrency surfaces of the block-execution and edge-tier work.
# dpc_test drives the DPC's one pipeline over real sockets: committed
# streams pulled on server threads, nested recovery round trips through
# the upstream pool, and splices from the shared fragment store.
echo "== tier1: TSan (common/bem/appserver/net/dpc/edge/integration) =="
cmake -B build-tsan -S . -DDYNAPROX_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS" --target \
  common_test bem_test appserver_test net_test dpc_test edge_test \
  integration_test
ctest --test-dir build-tsan --output-on-failure \
  -R '^(common_test|bem_test|appserver_test|net_test|dpc_test|edge_test|integration_test)$'

# Deterministic chaos smoke: the seeded storm arms fault points across
# every in-process layer and checks the four chaos invariants
# (byte-identity, clean failures, conservation, recovery), then storms a
# real 3-worker epoll ingress over loopback with net.accept armed. Fixed
# seed, so a failure here reproduces exactly with the same command.
echo "== tier1: chaos smoke (fixed seed, ASan) =="
cmake --build build-asan -j"$JOBS" --target dynaprox_chaos
./build-asan/tools/dynaprox_chaos --seed=42 --requests=600 --workers=3

echo "== tier1: all green =="
