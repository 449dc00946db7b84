#include "net/blocking_scope.h"

namespace dynaprox::net {
namespace {

thread_local BlockingScope::Listener* thread_listener = nullptr;
// Open scopes on this thread; only the outermost reaches the listener.
thread_local int scope_depth = 0;

}  // namespace

BlockingScope::BlockingScope() : listener_(thread_listener) {
  if (listener_ != nullptr && scope_depth++ == 0) listener_->OnBlock();
}

BlockingScope::~BlockingScope() {
  if (listener_ != nullptr && --scope_depth == 0) listener_->OnUnblock();
}

void BlockingScope::SetThreadListener(Listener* listener) {
  thread_listener = listener;
}

}  // namespace dynaprox::net
