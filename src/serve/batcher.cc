#include "src/serve/batcher.h"

#include <algorithm>
#include <cstdio>

namespace refloat::serve {

std::string batch_key(const SolveRequest& request) {
  switch (request.backend) {
    case core::BackendKind::kValue:
      return request.matrix;  // the pre-backend key, byte-for-byte
    case core::BackendKind::kNoisy: {
      // Round-trippable sigma so two distinct deviations never collide.
      char sigma[40];
      std::snprintf(sigma, sizeof(sigma), "%.17g", request.noise_sigma);
      return request.matrix + "#noisy@" + sigma;
    }
    case core::BackendKind::kBitTrue:
      return request.matrix + "#bittrue";
  }
  return request.matrix;
}

void Batcher::add(PendingRequest&& pending, TimePoint now) {
  Group& group = groups_[batch_key(pending.request)];
  if (group.requests.empty()) {
    group.matrix = pending.request.matrix;
    group.oldest = now;
  }
  group.requests.push_back(std::move(pending));
  ++pending_;
}

TimePoint Batcher::ready_time(const Group& group) const {
  TimePoint ready = group.oldest + window_;
  for (const PendingRequest& p : group.requests) {
    ready = std::min(ready, p.request.deadline);
  }
  return ready;
}

std::optional<Batcher::ReadyBatch> Batcher::pop_ready(
    TimePoint now, std::vector<PendingRequest>* shed, bool force,
    const std::set<std::string>* busy) {
  // Shed expired members first — a request whose deadline passed must not
  // consume solver time, and must not hold its group's earliest-deadline
  // clock at a stale value.
  for (auto& [key, group] : groups_) {
    auto expired = std::stable_partition(
        group.requests.begin(), group.requests.end(),
        [&](const PendingRequest& p) { return p.request.deadline >= now; });
    for (auto it = expired; it != group.requests.end(); ++it) {
      if (shed != nullptr) shed->push_back(std::move(*it));
      --pending_;
    }
    group.requests.erase(expired, group.requests.end());
  }

  for (auto it = groups_.begin(); it != groups_.end();) {
    Group& group = it->second;
    if (group.requests.empty()) {
      it = groups_.erase(it);
      continue;
    }
    if (busy != nullptr && busy->count(it->first) != 0) {
      ++it;
      continue;
    }
    const bool full = group.requests.size() >= max_batch_;
    if (force || full || now >= ready_time(group)) {
      ReadyBatch batch;
      batch.key = it->first;
      batch.matrix = group.matrix;
      const std::size_t take = std::min(group.requests.size(), max_batch_);
      batch.requests.assign(
          std::make_move_iterator(group.requests.begin()),
          std::make_move_iterator(group.requests.begin() +
                                  static_cast<long>(take)));
      group.requests.erase(group.requests.begin(),
                           group.requests.begin() + static_cast<long>(take));
      pending_ -= take;
      if (group.requests.empty()) {
        groups_.erase(it);
      } else {
        // Overflow beyond max_batch starts a fresh window from now — it
        // was admitted while the popped batch filled, not starved.
        group.oldest = now;
      }
      return batch;
    }
    ++it;
  }
  return std::nullopt;
}

std::optional<TimePoint> Batcher::next_event(
    const std::set<std::string>* busy) const {
  std::optional<TimePoint> next;
  for (const auto& [key, group] : groups_) {
    if (group.requests.empty()) continue;
    if (busy != nullptr && busy->count(key) != 0) continue;
    const TimePoint t = ready_time(group);
    if (!next || t < *next) next = t;
  }
  return next;
}

}  // namespace refloat::serve
