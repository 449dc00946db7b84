#include "dpc/tag_scanner.h"

#include <cstring>

#include "bem/tag_codec.h"
#include "common/strings.h"

namespace dynaprox::dpc {
namespace {

constexpr char kStx = bem::TagCodec::kStx;
constexpr char kEtx = bem::TagCodec::kEtx;

size_t FindMarker(std::string_view text, size_t from, ScanStrategy strategy) {
  if (from >= text.size()) return std::string_view::npos;
  switch (strategy) {
    case ScanStrategy::kMemchr: {
      const void* p =
          std::memchr(text.data() + from, kStx, text.size() - from);
      if (p == nullptr) return std::string_view::npos;
      return static_cast<size_t>(static_cast<const char*>(p) - text.data());
    }
    case ScanStrategy::kByteLoop: {
      for (size_t i = from; i < text.size(); ++i) {
        if (text[i] == kStx) return i;
      }
      return std::string_view::npos;
    }
  }
  return std::string_view::npos;
}

// Key validation for 'S'/'G' tags. The hex run must be
// 1..kMaxKeyHexDigits digits and must not name bem::kInvalidDpcKey: that
// value is the scanner's own "no key" sentinel and the fragment store
// rejects it, so a template carrying it is corrupt rather than merely
// cold.
Status DecodeKey(std::string_view hex, bem::DpcKey& key) {
  if (hex.empty()) return Status::Corruption("empty dpcKey in tag");
  if (hex.size() > kMaxKeyHexDigits) {
    return Status::Corruption("oversized dpcKey in tag");
  }
  Result<uint64_t> parsed = ParseHex(hex);
  if (!parsed.ok() || *parsed == bem::kInvalidDpcKey) {
    return Status::Corruption("bad dpcKey in tag");
  }
  key = *parsed;
  return Status::Ok();
}

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

// The one-byte payload a literal-escape tag emits. An escape may resolve
// after its chunk is gone, so the emitted STX aliases this immortal buffer
// instead of the wire.
const common::Buffer& StxBuffer() {
  static const common::Buffer buffer =
      common::MakeBuffer(std::string(1, kStx));
  return buffer;
}

}  // namespace

Status StreamingScanner::Fail(Status status) {
  state_ = State::kFailed;
  failure_ = status;
  pieces_.clear();
  pieces_bytes_ = 0;
  tag_.clear();
  return failure_;
}

void StreamingScanner::AddPiece(const common::Buffer& owner,
                                std::string_view piece) {
  if (piece.empty()) return;
  pieces_bytes_ += piece.size();
  if (!pieces_.empty()) {
    StreamPiece& last = pieces_.back();
    if (last.owner == owner &&
        last.view.data() + last.view.size() == piece.data()) {
      last.view =
          std::string_view(last.view.data(), last.view.size() + piece.size());
      return;
    }
  }
  pieces_.push_back({owner, piece});
}

void StreamingScanner::FlushLiteral(std::vector<StreamSegment>& out) {
  if (pieces_.empty()) return;
  StreamSegment segment;
  segment.kind = StreamSegment::Kind::kLiteral;
  segment.pieces = std::move(pieces_);
  pieces_.clear();
  pieces_bytes_ = 0;
  out.push_back(std::move(segment));
}

Status StreamingScanner::StepTag(std::vector<StreamSegment>& out) {
  const char marker = tag_[1];
  const char last = tag_.back();
  if (tag_.size() == 2) {
    // Marker byte just arrived: structural errors that don't depend on
    // the rest of the tag are rejected here, before any more input.
    switch (marker) {
      case 'L':
        return Status::Ok();
      case 'E':
        if (!inside_set_) return Fail(Status::Corruption("SET-end without SET"));
        return Status::Ok();
      case 'S':
        if (inside_set_) return Fail(Status::Corruption("nested SET tag"));
        return Status::Ok();
      case 'G':
        if (inside_set_) return Fail(Status::Corruption("GET tag inside SET"));
        return Status::Ok();
      default:
        return Fail(Status::Corruption(std::string("unknown tag marker '") +
                                       marker + "'"));
    }
  }
  switch (marker) {
    case 'L': {
      if (last != kEtx) {
        return Fail(Status::Corruption("malformed literal-escape tag"));
      }
      AddPiece(StxBuffer(), std::string_view(StxBuffer()->data(), 1));
      break;
    }
    case 'E': {
      if (last != kEtx) {
        return Fail(Status::Corruption("malformed SET-end tag"));
      }
      StreamSegment segment;
      segment.kind = StreamSegment::Kind::kSet;
      segment.key = set_key_;
      segment.pieces = std::move(pieces_);
      pieces_.clear();
      pieces_bytes_ = 0;
      out.push_back(std::move(segment));
      inside_set_ = false;
      set_key_ = bem::kInvalidDpcKey;
      break;
    }
    case 'S':
    case 'G': {
      if (last != kEtx) {
        if (!IsHexDigit(last)) {
          return Fail(Status::Corruption("bad dpcKey in tag"));
        }
        if (tag_.size() - 2 > kMaxKeyHexDigits) {
          return Fail(Status::Corruption("oversized dpcKey in tag"));
        }
        return Status::Ok();
      }
      bem::DpcKey key = bem::kInvalidDpcKey;
      Status decoded =
          DecodeKey(std::string_view(tag_).substr(2, tag_.size() - 3), key);
      if (!decoded.ok()) return Fail(decoded);
      FlushLiteral(out);
      if (marker == 'S') {
        inside_set_ = true;
        set_key_ = key;
      } else {
        StreamSegment segment;
        segment.kind = StreamSegment::Kind::kGet;
        segment.key = key;
        out.push_back(std::move(segment));
      }
      break;
    }
    default:
      return Fail(Status::Internal("unreachable tag marker"));
  }
  tag_.clear();
  state_ = State::kText;
  return Status::Ok();
}

Status StreamingScanner::Feed(common::Buffer owner, std::string_view bytes,
                              std::vector<StreamSegment>& out) {
  if (state_ == State::kFailed) return failure_;
  if (state_ == State::kDone) {
    return Fail(Status::Internal("StreamingScanner::Feed after Finish"));
  }
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (state_ == State::kText) {
      size_t stx = FindMarker(bytes, pos, strategy_);
      if (stx == std::string_view::npos) {
        AddPiece(owner, bytes.substr(pos));
        break;
      }
      AddPiece(owner, bytes.substr(pos, stx - pos));
      tag_.assign(1, kStx);
      state_ = State::kTag;
      pos = stx + 1;
    } else {
      // Tags are at most 2 + kMaxKeyHexDigits + 1 bytes, so the byte loop
      // here never dominates; FindMarker covers the bulk text.
      tag_.push_back(bytes[pos++]);
      DYNAPROX_RETURN_IF_ERROR(StepTag(out));
    }
  }
  // Literal text outside a tag and outside an open SET body is final:
  // flush it so the caller can put the bytes on the wire now instead of
  // holding them across the chunk boundary.
  if (state_ == State::kText && !inside_set_) FlushLiteral(out);
  return Status::Ok();
}

Status StreamingScanner::Feed(common::Buffer chunk,
                              std::vector<StreamSegment>& out) {
  std::string_view bytes = chunk == nullptr ? std::string_view() : *chunk;
  return Feed(std::move(chunk), bytes, out);
}

Status StreamingScanner::Feed(const common::BufferChain& chunk,
                              std::vector<StreamSegment>& out) {
  for (const common::BufferChain::Slice& slice : chunk.slices()) {
    DYNAPROX_RETURN_IF_ERROR(Feed(slice.buffer, slice.view(), out));
  }
  return Status::Ok();
}

Status StreamingScanner::Finish(std::vector<StreamSegment>& out) {
  if (state_ == State::kFailed) return failure_;
  if (state_ == State::kDone) return Status::Ok();
  if (state_ == State::kTag) {
    return Fail(Status::Corruption("truncated tag at end of template"));
  }
  if (inside_set_) return Fail(Status::Corruption("unterminated SET block"));
  FlushLiteral(out);
  state_ = State::kDone;
  return Status::Ok();
}

Result<std::vector<StreamSegment>> ParseTemplate(common::Buffer wire,
                                                 ScanStrategy strategy) {
  StreamingScanner scanner(strategy);
  std::vector<StreamSegment> segments;
  DYNAPROX_RETURN_IF_ERROR(scanner.Feed(std::move(wire), segments));
  DYNAPROX_RETURN_IF_ERROR(scanner.Finish(segments));
  return segments;
}

Result<std::vector<StreamSegment>> ParseTemplate(std::string_view wire,
                                                 ScanStrategy strategy) {
  return ParseTemplate(common::MakeBuffer(std::string(wire)), strategy);
}

}  // namespace dynaprox::dpc
