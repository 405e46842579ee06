#include "sim/engine.hpp"

#include <sstream>

namespace srm::sim {

Engine::EventId Engine::call_at(Time t, std::function<void()> fn) {
  SRM_CHECK_MSG(t >= now_, "event scheduled in the past");
  EventId id = next_id_++;
  queue_.push(Ev{t, next_key(), id, {}, std::move(fn)});
  return id;
}

Engine::EventId Engine::resume_at(Time t, std::coroutine_handle<> h) {
  SRM_CHECK_MSG(t >= now_, "resume scheduled in the past");
  SRM_CHECK(h);
  EventId id = next_id_++;
  queue_.push(Ev{t, next_key(), id, h, {}});
  return id;
}

void Engine::cancel(EventId id) { cancelled_.insert(id); }

void Engine::spawn(CoTask task) {
  SRM_CHECK(task.valid());
  std::uint64_t key = next_root_++;
  auto h = task.handle();
  h.promise().on_complete = [this, key](std::exception_ptr e) noexcept {
    if (e && !first_error_) first_error_ = e;
    reap_.push_back(key);
  };
  roots_.emplace(key, std::move(task));
  resume_at(now_, h);
}

void Engine::add_blocked_source(BlockedInfoSource* src) {
  SRM_CHECK(src != nullptr);
  SRM_CHECK(src->prev_ == nullptr && sources_head_ != src);  // not yet linked
  src->prev_ = sources_tail_;
  src->next_ = nullptr;
  (sources_tail_ != nullptr ? sources_tail_->next_ : sources_head_) = src;
  sources_tail_ = src;
}

void Engine::remove_blocked_source(BlockedInfoSource* src) {
  if (src->prev_ == nullptr && sources_head_ != src) return;  // not linked
  (src->prev_ != nullptr ? src->prev_->next_ : sources_head_) = src->next_;
  (src->next_ != nullptr ? src->next_->prev_ : sources_tail_) = src->prev_;
  src->prev_ = nullptr;
  src->next_ = nullptr;
}

std::string Engine::describe_deadlock() const {
  std::ostringstream os;
  os << "simulation deadlock: event queue empty but " << roots_.size()
     << " process(es) still suspended at t=" << to_us(now_) << "us";
  for (const BlockedInfoSource* src = sources_head_; src != nullptr;
       src = src->next_) {
    src->describe_blocked(os);
  }
  return os.str();
}

void Engine::reap_finished() {
  for (std::uint64_t key : reap_) roots_.erase(key);
  reap_.clear();
}

void Engine::run() {
  while (!queue_.empty()) {
    Ev ev = queue_.pop();
    if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    SRM_CHECK(ev.t >= now_);
    now_ = ev.t;
    ++processed_;
    if (ev.h) {
      ev.h.resume();
    } else {
      ev.fn();
    }
    reap_finished();
    if (first_error_) {
      auto e = std::exchange(first_error_, nullptr);
      std::rethrow_exception(e);
    }
  }
  if (!roots_.empty()) {
    throw util::CheckError(describe_deadlock());
  }
}

}  // namespace srm::sim
