#include "dpc/assembler.h"

#include <algorithm>

namespace dynaprox::dpc {

Result<AssembledPage> AssemblePage(common::Buffer wire,
                                   FragmentStore& store,
                                   ScanStrategy strategy) {
  std::string_view wire_view = wire == nullptr ? std::string_view() : *wire;
  std::vector<TemplateSegment> segments;
  DYNAPROX_ASSIGN_OR_RETURN(segments, ParseTemplate(wire_view, strategy));

  AssembledPage out;
  for (TemplateSegment& segment : segments) {
    switch (segment.kind) {
      case TemplateSegment::Kind::kLiteral:
        for (std::string_view piece : segment.pieces) {
          out.body.Append(wire, piece);
          out.bytes_referenced += piece.size();
        }
        break;
      case TemplateSegment::Kind::kSet: {
        ++out.set_count;
        out.set_keys.push_back(segment.key);
        // One materialization, shared: the store slot and the page chain
        // hold the same buffer, so the payload is never copied again —
        // not here, and not by any later page that GETs it.
        FragmentRef fragment =
            std::make_shared<const std::string>(segment.Text());
        out.bytes_copied += fragment->size();
        out.body.Append(fragment);
        DYNAPROX_RETURN_IF_ERROR(store.Set(segment.key, std::move(fragment)));
        break;
      }
      case TemplateSegment::Kind::kGet: {
        ++out.get_count;
        Result<FragmentRef> content = store.Get(segment.key);
        if (!content.ok()) {
          if (content.status().IsNotFound()) {
            out.missing_keys.push_back(segment.key);
            break;
          }
          return content.status();
        }
        out.bytes_referenced += (*content)->size();
        out.body.Append(std::move(*content));
        break;
      }
    }
  }
  return out;
}

Result<AssembledPage> AssemblePage(std::string_view wire,
                                   FragmentStore& store,
                                   ScanStrategy strategy) {
  return AssemblePage(common::MakeBuffer(std::string(wire)), store, strategy);
}

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
      case TemplateSegment::Kind::kLiteral:
        for (StreamPiece& piece : segment.pieces) {
          progress_.bytes_referenced += piece.view.size();
          sink->Append(std::move(piece.owner), piece.view);
        }
        break;
      case TemplateSegment::Kind::kSet: {
        ++progress_.set_count;
        progress_.set_keys.push_back(segment.key);
        // Same sharing as AssemblePage: one materialization feeds both
        // the store slot and the output chain.
        FragmentRef fragment =
            std::make_shared<const std::string>(segment.Text());
        progress_.bytes_copied += fragment->size();
        sink->Append(fragment);
        DYNAPROX_RETURN_IF_ERROR(store_.Set(segment.key, std::move(fragment)));
        break;
      }
      case TemplateSegment::Kind::kGet: {
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
  DYNAPROX_RETURN_IF_ERROR(miss_resolver_(keys));
  MicroTime resolved_at = Now();
  for (Hole& hole : holes_) {
    Result<FragmentRef> content = store_.Get(hole.key);
    if (!content.ok()) return content.status();
    progress_.bytes_referenced += (*content)->size();
    out.Append(std::move(*content));
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

}  // namespace dynaprox::dpc
