#ifndef DYNAPROX_DPC_ASSEMBLER_H_
#define DYNAPROX_DPC_ASSEMBLER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bem/types.h"
#include "common/buffer_chain.h"
#include "common/clock.h"
#include "common/result.h"
#include "dpc/fragment_store.h"
#include "dpc/tag_scanner.h"

namespace dynaprox::dpc {

// Running totals of one assembly.
struct StreamProgress {
  size_t set_count = 0;
  size_t get_count = 0;
  // Copy-elimination accounting: bytes memcpy'd while building the page
  // (SET materialization only) vs bytes spliced in by reference (literals
  // and GET fragments).
  size_t bytes_copied = 0;
  size_t bytes_referenced = 0;
  // dpcKeys stored via SET, in template order. Edge clusters replicate
  // these fragments to their ring owners.
  std::vector<bem::DpcKey> set_keys;
  // Wall time in the tag scan and in the SET stores + splices (the miss
  // resolver's time excluded); zero without a clock.
  MicroTime scan_micros = 0;
  MicroTime splice_micros = 0;
};

// Assembles a page from a BEM template (paper 4.3.2), the DPC's one
// segment executor: wraps a StreamingScanner and executes segments against
// the store the moment they resolve, so assembled bytes reach `out` while
// the rest of the template is still in flight. Holdback is the scanner's
// (open SET body + partial tag), never the page. Nothing is copied but SET
// payloads: literals alias the template chunks, GET splices alias the
// store's fragment buffers, and each SET payload is materialized once into
// a buffer shared by the store slot and `out`.
//
// GET misses — a slot that does not hold exactly the GET's key — are
// resolved inline, once per Feed()/Finish() call: the call's misses leave
// holes in its output, the MissResolver is asked for all of them at once
// (the proxy waits for SETs in flight, peer-fills, then sends one refresh
// round trip upstream), and each hole is filled with the fragment the
// resolver found for it. Without a resolver a miss fails the call with
// NotFound.
class StreamingAssembler {
 public:
  // Finds content for `keys` (one call's GET misses, template order, no
  // duplicates): `found` arrives with one null entry per key, and each
  // entry the resolver sets fills that key's holes. An error, or an entry
  // left null, fails the Feed()/Finish() call.
  using MissResolver = std::function<Status(
      const std::vector<bem::DpcKey>& keys, std::vector<FragmentRef>& found)>;

  // `clock` times the scan and splice stages (progress()); may be null.
  // `carrier` is the store writer of the upstream response the template
  // arrives in, passed with each SET (FragmentStore::Set); may be null.
  explicit StreamingAssembler(FragmentStore& store,
                              MissResolver miss_resolver = nullptr,
                              const Clock* clock = nullptr,
                              const FragmentStore::Writer* carrier = nullptr)
      : store_(store),
        miss_resolver_(std::move(miss_resolver)),
        clock_(clock),
        carrier_(carrier) {}

  // Scans `bytes` (which must alias `*owner`), appending every assembled
  // byte that resolves within this chunk to `out`.
  Status Feed(common::Buffer owner, std::string_view bytes,
              common::BufferChain& out);
  // Whole-buffer convenience; `chunk` may be null (empty feed).
  Status Feed(common::Buffer chunk, common::BufferChain& out);
  // Scans every slice of `chunk` as one call, so its GET misses share one
  // resolver call.
  Status Feed(const common::BufferChain& chunk, common::BufferChain& out);

  // Ends the template: flushes the trailing literal, rejects truncation.
  Status Finish(common::BufferChain& out);

  const StreamProgress& progress() const { return progress_; }
  // Bytes held back across chunk boundaries (see StreamingScanner).
  size_t buffered_bytes() const { return scanner_.buffered_bytes(); }

 private:
  // A GET miss and the output that followed it within one call.
  struct Hole {
    bem::DpcKey key;
    common::BufferChain after;
  };

  MicroTime Now() const { return clock_ == nullptr ? 0 : clock_->NowMicros(); }
  // Accounts the scan that began at `scan_start` and ended with
  // `scanned`, then runs the segments it produced.
  Status Execute(Status scanned, MicroTime scan_start,
                 common::BufferChain& out);
  // Resolves the holes Execute left and splices them into `out`.
  Status FillHoles(common::BufferChain& out);

  FragmentStore& store_;
  StreamingScanner scanner_;
  MissResolver miss_resolver_;
  const Clock* clock_;
  const FragmentStore::Writer* carrier_;
  StreamProgress progress_;
  std::vector<StreamSegment> segments_;  // Reused across calls.
  std::vector<Hole> holes_;              // Reused across calls.
};

// A whole template assembled in one call: the body chain plus the
// assembler's running totals.
struct AssembledPage {
  common::BufferChain body;
  StreamProgress progress;

  // Flattens the chain; for tests, not the wire path.
  std::string Text() const { return body.Flatten(); }
};

// One StreamingAssembler Feed of `wire`, then Finish, with no miss
// resolver: a cold-cache GET fails the call with NotFound. Literals alias
// `wire`, so the page holds a reference to it. The string_view form copies
// `wire` into a shared buffer first.
Result<AssembledPage> AssemblePage(common::Buffer wire, FragmentStore& store);
Result<AssembledPage> AssemblePage(std::string_view wire,
                                   FragmentStore& store);

}  // namespace dynaprox::dpc

#endif  // DYNAPROX_DPC_ASSEMBLER_H_
