#include "appserver/script_context.h"

#include "bem/tag_codec.h"
#include "common/fault_point.h"
#include "common/logging.h"

namespace dynaprox::appserver {

ScriptContext::ScriptContext(const http::Request& request,
                             storage::ContentRepository* repository,
                             bem::BackEndMonitor* monitor,
                             const ScriptMetrics* metrics,
                             common::ThreadPool* block_pool)
    : request_(request),
      repository_(repository),
      monitor_(monitor),
      metrics_(metrics),
      block_pool_(block_pool) {}

ScriptContext::~ScriptContext() {
  // A script may fail between dispatching generators and FinishBlocks;
  // the tasks capture pointers into this object, so wait them out.
  WaitForBlocks();
}

void ScriptContext::ObserveStage(metrics::LatencyHistogram* histogram,
                                 MicroTime micros) const {
  if (histogram == nullptr) return;
  histogram->Observe(static_cast<double>(micros) / kMicrosPerSecond);
}

void ScriptContext::ForceMiss(std::string canonical) {
  force_miss_.push_back(std::move(canonical));
}

std::string* ScriptContext::sink() {
  return in_block_ ? &block_buffer_ : &body_;
}

void ScriptContext::Emit(std::string_view text) {
  if (monitor_ != nullptr && !in_block_) {
    // Top-level text goes into the template escaped, so fragment content
    // containing the tag marker can never confuse the DPC scanner.
    bem::TagCodec::AppendLiteral(text, body_);
  } else {
    sink()->append(text);
  }
}

void ScriptContext::RegisterAndEmit(
    const bem::FragmentId& id, MicroTime ttl_micros, std::string&& output,
    std::vector<std::pair<std::string, std::string>>&& deps,
    uint64_t read_since, std::string& out) {
  const bool instrumented = timed();
  const Clock* clock = instrumented ? metrics_->clock : nullptr;

  ++stats_.misses;
  Result<bem::DpcKey> key =
      monitor_->InsertFragment(id, ttl_micros, deps, read_since);
  if (!key.ok()) {
    // Directory full and unevictable: degrade to uncached emission.
    DYNAPROX_LOG(kWarning, "appserver")
        << "fragment " << id.Canonical()
        << " not cached: " << key.status().ToString();
    ++stats_.uncacheable;
    bem::TagCodec::AppendLiteral(output, out);
    return;
  }
  inserted_.emplace_back(id.Canonical(), *key);
  if (capture_ != nullptr) {
    capture_->push_back(CapturedFragment{id.Canonical(), *key, output});
  }
  used_tagging_ = true;
  MicroTime emit_start = instrumented ? clock->NowMicros() : 0;
  bem::TagCodec::AppendSet(*key, output, out);
  if (instrumented) {
    ObserveStage(metrics_->tag_emission, clock->NowMicros() - emit_start);
  }
}

Status ScriptContext::CacheableBlock(const bem::FragmentId& id,
                                     MicroTime ttl_micros,
                                     const BlockFn& generate) {
  if (in_block_) {
    return Status::FailedPrecondition(
        "nested cacheable blocks are not supported (fragment " +
        id.Canonical() + ")");
  }

  const bool instrumented = timed();
  const Clock* clock = instrumented ? metrics_->clock : nullptr;

  if (monitor_ == nullptr) {
    // No-cache baseline: the block runs inline on every request. Still
    // timed so B_C and B_NC generator costs compare from one histogram.
    ++stats_.uncacheable;
    MicroTime start = instrumented ? clock->NowMicros() : 0;
    Status generated = generate(*this);
    if (instrumented) {
      ObserveStage(metrics_->block_execution, clock->NowMicros() - start);
    }
    return generated;
  }

  // Refresh recovery: a forced canonical skips the lookup entirely. A hit
  // here would emit GET for content the DPC told us it does not have —
  // the valid entry may come from a concurrent request whose SET is still
  // in flight in that request's response.
  bool forced = false;
  for (auto it = force_miss_.begin(); it != force_miss_.end(); ++it) {
    if (*it == id.Canonical()) {
      force_miss_.erase(it);
      forced = true;
      ++stats_.forced_misses;
      break;
    }
  }

  MicroTime lookup_start = instrumented ? clock->NowMicros() : 0;
  bem::LookupResult lookup =
      forced ? bem::LookupResult{bem::LookupOutcome::kMissInvalid,
                                 bem::kInvalidDpcKey}
             : monitor_->LookupFragment(id);
  if (instrumented && !forced) {
    ObserveStage(metrics_->directory_lookup,
                 clock->NowMicros() - lookup_start);
  }
  if (lookup.hit()) {
    ++stats_.hits;
    used_tagging_ = true;
    MicroTime emit_start = instrumented ? clock->NowMicros() : 0;
    bem::TagCodec::AppendGet(lookup.key, body_);
    if (instrumented) {
      ObserveStage(metrics_->tag_emission, clock->NowMicros() - emit_start);
    }
    return Status::Ok();
  }

  if (parallel_blocks_enabled() && !finished_blocks_) {
    // Duplicate canonical already dispatched this page: sequential
    // execution would hit the first occurrence's insert and emit GET, so
    // do the same at splice time — and do not run the generator again.
    for (PendingBlock& earlier : pending_blocks_) {
      if (earlier.id.Canonical() == id.Canonical()) {
        earlier.has_duplicate = true;
        segments_.push_back(
            Segment{std::move(body_), &earlier, /*emit_get=*/true});
        body_.clear();
        return Status::Ok();
      }
    }
    // Parallel miss path: capture the generator and hand it to the pool;
    // the page keeps a hole that FinishBlocks fills in page order. The
    // generator runs against a throwaway child context whose only job is
    // collecting the fragment buffer and dependency declarations.
    ++stats_.parallel_blocks;
    pending_blocks_.push_back(PendingBlock{id, ttl_micros, generate,
                                           monitor_->update_sequence(),
                                           /*output=*/{}, /*deps=*/{}});
    PendingBlock* pending = &pending_blocks_.back();
    segments_.push_back(Segment{std::move(body_), pending});
    body_.clear();
    {
      std::lock_guard<std::mutex> lock(block_mu_);
      ++outstanding_blocks_;
    }
    block_pool_->Submit([this, pending] {
      {
        ScriptContext child(request_, repository_, monitor_, metrics_);
        child.in_block_ = true;
        MicroTime start = timed() ? metrics_->clock->NowMicros() : 0;
        Status injected = chaos::InjectStatus(
            DYNAPROX_FAULT_POINT("bem.block.generate"));
        pending->status =
            injected.ok() ? pending->generate(child) : injected;
        if (timed()) {
          ObserveStage(metrics_->block_execution,
                       metrics_->clock->NowMicros() - start);
        }
        pending->output = std::move(child.block_buffer_);
        pending->deps = std::move(child.pending_deps_);
      }
      std::lock_guard<std::mutex> lock(block_mu_);
      --outstanding_blocks_;
      block_cv_.notify_all();
    });
    return Status::Ok();
  }

  // Sequential miss path: run the code block first; only a successful
  // generation is registered in the directory.
  in_block_ = true;
  block_buffer_.clear();
  pending_deps_.clear();
  const uint64_t read_since = monitor_->update_sequence();
  MicroTime generate_start = instrumented ? clock->NowMicros() : 0;
  Status generated =
      chaos::InjectStatus(DYNAPROX_FAULT_POINT("bem.block.generate"));
  if (generated.ok()) generated = generate(*this);
  if (instrumented) {
    ObserveStage(metrics_->block_execution,
                 clock->NowMicros() - generate_start);
  }
  in_block_ = false;
  if (!generated.ok()) {
    block_buffer_.clear();
    pending_deps_.clear();
    return generated;
  }

  RegisterAndEmit(id, ttl_micros, std::move(block_buffer_),
                  std::move(pending_deps_), read_since, body_);
  block_buffer_.clear();
  pending_deps_.clear();
  return Status::Ok();
}

void ScriptContext::WaitForBlocks() {
  std::unique_lock<std::mutex> lock(block_mu_);
  block_cv_.wait(lock, [this] { return outstanding_blocks_ == 0; });
}

Status ScriptContext::FinishBlocks() {
  if (finished_blocks_) return finish_status_;
  finished_blocks_ = true;
  if (segments_.empty()) return finish_status_;
  WaitForBlocks();

  // Splice in page order: text, then the block's fragment. Inserts happen
  // here — in page order — so dpcKey assignment matches sequential
  // execution exactly (critical for refresh-pinned slot reuse).
  std::string assembled;
  for (Segment& segment : segments_) {
    assembled.append(segment.text);
    PendingBlock& pending = *segment.block;
    if (segment.emit_get) {
      // Duplicate occurrence: the first occurrence (earlier in page
      // order) has already inserted, so this lookup hits the same key a
      // sequential render would have.
      if (!pending.status.ok()) continue;
      bem::LookupResult lookup = monitor_->LookupFragment(pending.id);
      if (lookup.hit()) {
        ++stats_.hits;
        used_tagging_ = true;
        bem::TagCodec::AppendGet(lookup.key, assembled);
      } else {
        // First occurrence degraded to uncached (directory full): emit
        // the preserved copy inline rather than a dangling GET.
        ++stats_.uncacheable;
        bem::TagCodec::AppendLiteral(pending.output, assembled);
      }
      continue;
    }
    if (!pending.status.ok()) {
      if (finish_status_.ok()) finish_status_ = pending.status;
      continue;
    }
    RegisterAndEmit(pending.id, pending.ttl_micros,
                    pending.has_duplicate ? std::string(pending.output)
                                          : std::move(pending.output),
                    std::move(pending.deps), pending.read_since, assembled);
  }
  assembled.append(body_);
  body_ = std::move(assembled);
  segments_.clear();
  pending_blocks_.clear();
  return finish_status_;
}

void ScriptContext::DeclareDependency(const std::string& table,
                                      const std::string& row_key) {
  if (!in_block_ || monitor_ == nullptr) return;
  pending_deps_.emplace_back(table, row_key);
}

void ScriptContext::SetStatus(int code) { status_code_ = code; }

void ScriptContext::SetHeader(std::string name, std::string value) {
  headers_.Set(std::move(name), std::move(value));
}

http::Response ScriptContext::TakeResponse(
    const std::string& template_header_name) {
  // Belt and braces: the origin calls FinishBlocks explicitly for the
  // status; anyone else at least gets a fully assembled body.
  FinishBlocks();
  http::Response response;
  response.status_code = status_code_;
  response.reason = std::string(http::CanonicalReason(status_code_));
  response.headers = std::move(headers_);
  if (!response.headers.Has("Content-Type")) {
    response.headers.Add("Content-Type", "text/html");
  }
  if (used_tagging_) {
    response.headers.Set(template_header_name, "1");
  }
  response.body = std::move(body_);
  return response;
}

}  // namespace dynaprox::appserver
