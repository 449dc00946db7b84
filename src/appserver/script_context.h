#ifndef DYNAPROX_APPSERVER_SCRIPT_CONTEXT_H_
#define DYNAPROX_APPSERVER_SCRIPT_CONTEXT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bem/monitor.h"
#include "bem/types.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "http/message.h"
#include "storage/table.h"

namespace dynaprox::appserver {

// One fragment registered during a render, with the body that went into
// its SET instruction. The push engine re-renders a producer request with
// a capture attached and forwards these bodies over the control channel
// (docs/edge-tier.md) instead of re-parsing the template.
struct CapturedFragment {
  std::string canonical;
  bem::DpcKey key = bem::kInvalidDpcKey;
  std::string body;
};

// Per-request fragment accounting, mirrored into OriginStats.
struct RequestFragmentStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t uncacheable = 0;  // Blocks run without BEM involvement.
  uint64_t parallel_blocks = 0;  // Miss generators dispatched to the pool.
  uint64_t forced_misses = 0;  // Refresh-forced misses (ForceMiss hits).
};

// BEM-stage latency hooks, shared by every context the origin creates.
// Timing happens only when `clock` and the target histogram are both
// non-null, so the baseline path costs nothing. The histograms are
// relaxed-atomic, so contexts on different threads may share one struct —
// including the block-execution pool threads.
struct ScriptMetrics {
  const Clock* clock = nullptr;
  // One observation per CacheableBlock: the directory LookupFragment call.
  metrics::LatencyHistogram* directory_lookup = nullptr;
  // One observation per executed generator (miss path, or every block in
  // baseline mode). Hits skip the generator and observe nothing.
  metrics::LatencyHistogram* block_execution = nullptr;
  // One observation per SET/GET tag written into the template.
  metrics::LatencyHistogram* tag_emission = nullptr;
};

// The environment a dynamic script runs in. This is the reproduction of the
// paper's tagging API (4.3.1): a script emits page text with Emit() and
// wraps cacheable code blocks in CacheableBlock().
//
// With a BEM attached the context produces a *template*: literal text plus
// SET/GET instructions. Without a BEM (the no-cache baseline) the exact
// same script produces the full page — CacheableBlock simply runs the
// generator inline. This symmetry is what lets the benches compare B_C and
// B_NC on identical workloads.
//
// Parallel block execution: with a `block_pool` attached (and a BEM), miss
// generators run concurrently on pool workers while the script keeps
// walking the page. Because the tagging API makes blocks independent by
// construction — a generator sees only its own fragment buffer — this
// needs no script changes. Execution is two-phase:
//   1. CacheableBlock resolves the directory lookup inline (page order).
//      Hits emit their GET tag immediately; misses capture the generator
//      and dispatch it to the pool, leaving an ordered hole in the page.
//   2. FinishBlocks() waits for the generators, then walks the holes in
//      page order: insert into the directory, register dependencies, and
//      splice the SET tag. Inserting in page order keeps dpcKey assignment
//      identical to sequential execution (refresh-pinned slots go to the
//      right fragment), so the assembled template is byte-identical.
// Generators must be safe to run off-thread: they may Emit and
// DeclareDependency on the context they are handed, but must not touch
// the parent context or non-thread-safe script state. A failing generator
// surfaces from FinishBlocks (first failure in page order), not from
// CacheableBlock.
//
// One context serves one request. The request thread drives Emit /
// CacheableBlock / FinishBlocks; only generator bodies run on the pool.
class ScriptContext {
 public:
  // `repository` may be null for scripts that don't touch the data layer;
  // `monitor` null selects the no-cache baseline behaviour. `metrics` may
  // be null (no stage timing); when set it must outlive the context.
  // `block_pool` non-null enables parallel block execution (ignored
  // without a monitor); it must outlive the context.
  ScriptContext(const http::Request& request,
                storage::ContentRepository* repository,
                bem::BackEndMonitor* monitor,
                const ScriptMetrics* metrics = nullptr,
                common::ThreadPool* block_pool = nullptr);
  ~ScriptContext();

  ScriptContext(const ScriptContext&) = delete;
  ScriptContext& operator=(const ScriptContext&) = delete;

  const http::Request& request() const { return request_; }
  storage::ContentRepository* repository() { return repository_; }
  bool caching_enabled() const { return monitor_ != nullptr; }
  bool parallel_blocks_enabled() const {
    return monitor_ != nullptr && block_pool_ != nullptr;
  }

  // Appends literal page text (escaped into the template as needed).
  void Emit(std::string_view text);

  // A cacheable code block (paper 4.3.1: "inserting APIs around the code
  // block"). On a directory hit the generator is *not executed* and a GET
  // tag is emitted; on a miss the generator runs, its output is wrapped in
  // a SET tag, and the fragment is registered with the BEM.
  //
  // `ttl_micros` < 0 uses the BEM default. Nested cacheable blocks are
  // rejected with FailedPrecondition (the paper's fragments are flat).
  // If the directory cannot accept the fragment the content is emitted
  // uncached — correctness degrades gracefully to no-cache behaviour.
  //
  // In parallel mode a miss returns Ok immediately and the generator's
  // status surfaces from FinishBlocks().
  using BlockFn = std::function<Status(ScriptContext&)>;
  Status CacheableBlock(const bem::FragmentId& id, MicroTime ttl_micros,
                        const BlockFn& generate);
  Status CacheableBlock(const bem::FragmentId& id, const BlockFn& generate) {
    return CacheableBlock(id, -1, generate);
  }

  // Waits for outstanding pool-dispatched generators and splices their
  // fragments into the template in page order. Returns the first generator
  // failure (page order) or Ok. Idempotent; a no-op in sequential mode.
  // Must be called after the script returns and before TakeResponse.
  Status FinishBlocks();

  // Forces the next CacheableBlock for `canonical` (FragmentId::Canonical
  // form) to take the miss path even if the directory lookup would hit.
  // One-shot: the first matching block consumes the entry.
  //
  // This closes the refresh race: X-DPC-Refresh recovery invalidates the
  // missing keys and re-renders, relying on the re-render to miss and emit
  // fresh SETs. But a concurrent request can re-insert the fragment
  // between the invalidation and this request's lookup — the lookup then
  // hits and emits GET for content whose SET is still in flight in the
  // *other* response, so the DPC's retry fails again. Forcing the miss
  // guarantees the refresh response carries the content inline.
  // Call before the script runs (request thread only).
  void ForceMiss(std::string canonical);

  // Declares that the fragment currently being generated depends on a
  // repository table (or row). Only meaningful inside a generating block;
  // outside one it is ignored (the page itself is not cached).
  void DeclareDependency(const std::string& table,
                         const std::string& row_key = "");

  // Response metadata.
  void SetStatus(int code);
  void SetHeader(std::string name, std::string value);

  const RequestFragmentStats& fragment_stats() const { return stats_; }

  // Every (canonical, dpcKey) this render successfully registered, in page
  // order. Parallel renders record during the FinishBlocks splice, so the
  // list is complete once FinishBlocks returns. The origin uses it to map
  // fragments back to the request that produces them.
  const std::vector<std::pair<std::string, bem::DpcKey>>& inserted() const {
    return inserted_;
  }

  // Attaches a sink that additionally receives each registered fragment's
  // body (see CapturedFragment). Call before the script runs; the sink
  // must outlive the context. Used by the push engine's re-renders.
  void SetFragmentCapture(std::vector<CapturedFragment>* sink) {
    capture_ = sink;
  }

  // Finalizes the response. When a BEM is attached and at least one
  // cacheable block executed, the body is a template and the response is
  // marked with dpc::kTemplateHeader (via `template_header_name`).
  // Calls FinishBlocks() if the caller hasn't (dropping its status).
  http::Response TakeResponse(const std::string& template_header_name);

 private:
  // One pool-dispatched miss generator and everything harvested from it.
  struct PendingBlock {
    bem::FragmentId id;
    MicroTime ttl_micros;
    BlockFn generate;
    // The monitor's update sequence before the generator ran.
    uint64_t read_since;
    // Filled by the pool task, read after the done handshake.
    std::string output;
    std::vector<std::pair<std::string, std::string>> deps;
    Status status = Status::Ok();
    // A later occurrence of the same canonical references this block; keep
    // `output` intact through the splice so the duplicate can fall back to
    // a literal copy if the insert degraded to uncached.
    bool has_duplicate = false;
  };

  // The template is assembled from ordered segments: literal text emitted
  // before each pending block, then the block's splice point.
  struct Segment {
    std::string text;
    PendingBlock* block;
    // Duplicate occurrence of a pending canonical: splice a GET for the
    // key the first occurrence registered instead of a second SET. This
    // mirrors sequential execution, where the second lookup hits.
    bool emit_get = false;
  };

  // Where Emit() currently writes: the top-level template or a fragment
  // buffer inside a generating block.
  std::string* sink();

  // Sequential miss path (also the parallel splice step, with the
  // generator already run). Caller has populated block_buffer_ /
  // pending_deps_; `read_since` is the monitor's update sequence from
  // before the generator ran. Appends SET (or uncached literal) to `out`.
  void RegisterAndEmit(const bem::FragmentId& id, MicroTime ttl_micros,
                       std::string&& output,
                       std::vector<std::pair<std::string, std::string>>&& deps,
                       uint64_t read_since, std::string& out);

  // Blocks until every dispatched generator has finished.
  void WaitForBlocks();

  // Observes `micros` into `histogram` when this context is instrumented.
  void ObserveStage(metrics::LatencyHistogram* histogram,
                    MicroTime micros) const;
  bool timed() const {
    return metrics_ != nullptr && metrics_->clock != nullptr;
  }

  const http::Request& request_;
  storage::ContentRepository* repository_;
  bem::BackEndMonitor* monitor_;
  const ScriptMetrics* metrics_;
  common::ThreadPool* block_pool_;

  std::string body_;            // Template (or plain page without BEM).
  // Canonicals whose next CacheableBlock must miss (refresh recovery);
  // request thread only — lookups stay inline even in parallel mode.
  std::vector<std::string> force_miss_;
  bool used_tagging_ = false;   // Any SET/GET emitted.
  bool in_block_ = false;
  std::string block_buffer_;    // Raw content of the generating block.
  std::vector<std::pair<std::string, std::string>> pending_deps_;

  // Parallel-mode state (request thread only, except the counter).
  std::deque<PendingBlock> pending_blocks_;  // Deque: pointer-stable.
  std::vector<Segment> segments_;
  bool finished_blocks_ = false;
  Status finish_status_ = Status::Ok();
  std::mutex block_mu_;
  std::condition_variable block_cv_;
  size_t outstanding_blocks_ = 0;  // Guarded by block_mu_.

  int status_code_ = 200;
  http::HeaderMap headers_;
  RequestFragmentStats stats_;
  std::vector<std::pair<std::string, bem::DpcKey>> inserted_;
  std::vector<CapturedFragment>* capture_ = nullptr;
};

}  // namespace dynaprox::appserver

#endif  // DYNAPROX_APPSERVER_SCRIPT_CONTEXT_H_
