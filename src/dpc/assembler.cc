#include "dpc/assembler.h"

#include <algorithm>

namespace dynaprox::dpc {

Status StreamingAssembler::Execute(Status scanned, MicroTime scan_start,
                                   common::BufferChain& out) {
  MicroTime scanned_at = Now();
  progress_.scan_micros += scanned_at - scan_start;
  DYNAPROX_RETURN_IF_ERROR(scanned);
  // Output after a GET miss collects in that miss's hole until the
  // resolver has run, so one resolver call serves every miss of the call.
  holes_.clear();
  common::BufferChain* sink = &out;
  for (StreamSegment& segment : segments_) {
    switch (segment.kind) {
      case StreamSegment::Kind::kLiteral:
        for (StreamPiece& piece : segment.pieces) {
          progress_.bytes_referenced += piece.view.size();
          sink->Append(std::move(piece.owner), piece.view);
        }
        break;
      case StreamSegment::Kind::kSet: {
        ++progress_.set_count;
        progress_.set_keys.push_back(segment.key);
        // One materialization, shared: the store slot and the output
        // chain hold the same buffer, so the payload is never copied
        // again — not here, and not by any later page that GETs it.
        FragmentRef fragment =
            std::make_shared<const std::string>(segment.Text());
        progress_.bytes_copied += fragment->size();
        sink->Append(fragment);
        DYNAPROX_RETURN_IF_ERROR(
            store_.Set(segment.key, std::move(fragment), carrier_));
        break;
      }
      case StreamSegment::Kind::kGet: {
        ++progress_.get_count;
        Result<FragmentRef> content = store_.Get(segment.key);
        if (content.ok()) {
          progress_.bytes_referenced += (*content)->size();
          sink->Append(std::move(*content));
        } else if (content.status().IsNotFound() &&
                   miss_resolver_ != nullptr) {
          holes_.push_back(Hole{segment.key, {}});
          sink = &holes_.back().after;
        } else {
          return content.status();
        }
        break;
      }
    }
  }
  progress_.splice_micros += Now() - scanned_at;
  return holes_.empty() ? Status::Ok() : FillHoles(out);
}

Status StreamingAssembler::FillHoles(common::BufferChain& out) {
  std::vector<bem::DpcKey> keys;
  for (const Hole& hole : holes_) {
    if (std::find(keys.begin(), keys.end(), hole.key) == keys.end()) {
      keys.push_back(hole.key);
    }
  }
  std::vector<FragmentRef> found(keys.size());
  DYNAPROX_RETURN_IF_ERROR(miss_resolver_(keys, found));
  MicroTime resolved_at = Now();
  for (Hole& hole : holes_) {
    const size_t index = static_cast<size_t>(
        std::find(keys.begin(), keys.end(), hole.key) - keys.begin());
    FragmentRef& content = found[index];
    if (content == nullptr) {
      return Status::NotFound("no fragment for key " +
                              std::to_string(hole.key));
    }
    progress_.bytes_referenced += content->size();
    out.Append(content);
    out.Append(std::move(hole.after));
  }
  progress_.splice_micros += Now() - resolved_at;
  return Status::Ok();
}

Status StreamingAssembler::Feed(common::Buffer owner, std::string_view bytes,
                                common::BufferChain& out) {
  segments_.clear();
  MicroTime start = Now();
  return Execute(scanner_.Feed(std::move(owner), bytes, segments_), start,
                 out);
}

Status StreamingAssembler::Feed(common::Buffer chunk,
                                common::BufferChain& out) {
  std::string_view bytes = chunk == nullptr ? std::string_view() : *chunk;
  return Feed(std::move(chunk), bytes, out);
}

Status StreamingAssembler::Feed(const common::BufferChain& chunk,
                                common::BufferChain& out) {
  segments_.clear();
  MicroTime start = Now();
  return Execute(scanner_.Feed(chunk, segments_), start, out);
}

Status StreamingAssembler::Finish(common::BufferChain& out) {
  segments_.clear();
  MicroTime start = Now();
  return Execute(scanner_.Finish(segments_), start, out);
}

Result<AssembledPage> AssemblePage(common::Buffer wire,
                                   FragmentStore& store) {
  StreamingAssembler assembler(store);
  AssembledPage page;
  DYNAPROX_RETURN_IF_ERROR(assembler.Feed(std::move(wire), page.body));
  DYNAPROX_RETURN_IF_ERROR(assembler.Finish(page.body));
  page.progress = assembler.progress();
  return page;
}

Result<AssembledPage> AssemblePage(std::string_view wire,
                                   FragmentStore& store) {
  return AssemblePage(common::MakeBuffer(std::string(wire)), store);
}

}  // namespace dynaprox::dpc
