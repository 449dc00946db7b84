#ifndef DYNAPROX_DPC_TAG_SCANNER_H_
#define DYNAPROX_DPC_TAG_SCANNER_H_

#include <string>
#include <string_view>
#include <vector>

#include "bem/types.h"
#include "common/buffer_chain.h"
#include "common/result.h"

namespace dynaprox::dpc {

// How the scanner locates the next tag marker in the template. kMemchr is
// the production choice; kByteLoop exists for the scanning-cost ablation
// (bench_ablation_scanner).
enum class ScanStrategy {
  kMemchr,
  kByteLoop,
};

// One parsed piece of a segment: a view plus the buffer owning its bytes.
// A segment may span chunk boundaries, so every piece carries its own
// owner and stays valid after the scanner has moved on to later chunks.
struct StreamPiece {
  common::Buffer owner;
  std::string_view view;
};

// One parsed piece of a response template. The scanner never copies
// payload bytes: a payload is one view per chunk it spans, and a
// literal-escape tag adds a one-byte piece for the STX it emits.
struct StreamSegment {
  enum class Kind {
    kLiteral,  // Page text to emit verbatim (already unescaped).
    kSet,      // Store the payload under `key`, then emit it.
    kGet,      // Emit the cached fragment stored under `key`.
  };

  Kind kind = Kind::kLiteral;
  bem::DpcKey key = bem::kInvalidDpcKey;
  std::vector<StreamPiece> pieces;  // Empty for kGet.

  // Total payload bytes across pieces.
  size_t text_size() const {
    size_t total = 0;
    for (const StreamPiece& piece : pieces) total += piece.view.size();
    return total;
  }

  // Materializes the payload (SET stores and tests; the assembler splices
  // literal pieces directly).
  std::string Text() const {
    std::string out;
    out.reserve(text_size());
    for (const StreamPiece& piece : pieces) out.append(piece.view);
    return out;
  }
};

// Longest admissible hex run in an 'S'/'G' tag. DpcKey is 64-bit
// (generation and slot, see bem::DpcKey) and bem::TagCodec emits minimal
// hex, so sixteen digits suffice; the cap also bounds the scanner's
// partial-tag stash against hostile zero-padded runs.
inline constexpr size_t kMaxKeyHexDigits = 2 * sizeof(bem::DpcKey);

// The DPC's one decoder for BEM-encoded response templates (see
// bem::TagCodec for the wire grammar), resumable across chunks. Feed()
// emits every segment the moment it resolves: literal text flushes at
// each chunk boundary (fold adjacent literals when comparing chunkings),
// a GET when its ETX arrives, a SET when its body closes. State carried
// across boundaries is bounded: a partial tag is at most
// 2 + kMaxKeyHexDigits + 1 bytes, and an open SET body accumulates only
// until its SET-end — so holdback is chunk + open-SET sized, never page
// sized.
//
// Fails with Corruption on malformed input: truncated tags, unknown
// markers, bad hex keys (empty runs, runs over kMaxKeyHexDigits, or the
// reserved bem::kInvalidDpcKey, which doubles as the "no key" sentinel
// downstream), SET without matching end, nested SET, or GET inside SET.
// After an error the scanner is dead: every later Feed()/Finish() returns
// the same failure. Call Finish() exactly once, after the last chunk.
class StreamingScanner {
 public:
  explicit StreamingScanner(ScanStrategy strategy = ScanStrategy::kMemchr)
      : strategy_(strategy) {}

  // Scans `bytes`, which must alias `*owner`, appending every segment
  // that resolves within this chunk to `out`.
  Status Feed(common::Buffer owner, std::string_view bytes,
              std::vector<StreamSegment>& out);

  // Whole-buffer convenience; `chunk` may be null (empty feed).
  Status Feed(common::Buffer chunk, std::vector<StreamSegment>& out);
  // Scans every slice of `chunk` in order, stopping at the first error.
  Status Feed(const common::BufferChain& chunk,
              std::vector<StreamSegment>& out);

  // Marks end of template: flushes the trailing literal, rejects a
  // dangling partial tag or an unterminated SET block.
  Status Finish(std::vector<StreamSegment>& out);

  // Bytes held back across chunk boundaries (open SET body + partial
  // tag): the streaming pipeline's per-connection buffering bound.
  size_t buffered_bytes() const { return pieces_bytes_ + tag_.size(); }

  bool failed() const { return state_ == State::kFailed; }

 private:
  enum class State { kText, kTag, kDone, kFailed };

  Status Fail(Status status);
  void AddPiece(const common::Buffer& owner, std::string_view piece);
  void FlushLiteral(std::vector<StreamSegment>& out);
  // Advances the partial tag in `tag_` by the byte just appended,
  // resolving or rejecting the tag once enough bytes are present.
  Status StepTag(std::vector<StreamSegment>& out);

  ScanStrategy strategy_;
  State state_ = State::kText;
  std::string tag_;  // Partial tag incl. leading STX; bounded.
  bool inside_set_ = false;
  bem::DpcKey set_key_ = bem::kInvalidDpcKey;
  std::vector<StreamPiece> pieces_;  // Literal run or open SET body.
  size_t pieces_bytes_ = 0;
  Status failure_ = Status::Ok();
};

// A whole template in one call: one StreamingScanner Feed of `wire`, then
// Finish. The segments hold references to `wire`. The string_view form
// copies `wire` into a shared buffer first.
Result<std::vector<StreamSegment>> ParseTemplate(
    common::Buffer wire, ScanStrategy strategy = ScanStrategy::kMemchr);
Result<std::vector<StreamSegment>> ParseTemplate(
    std::string_view wire, ScanStrategy strategy = ScanStrategy::kMemchr);

}  // namespace dynaprox::dpc

#endif  // DYNAPROX_DPC_TAG_SCANNER_H_
