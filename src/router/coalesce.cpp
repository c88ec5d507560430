#include "router/coalesce.hpp"

#include <cctype>
#include <limits>
#include <utility>

namespace qulrb::router {

Coalescer::Join Coalescer::join(const std::string& key,
                                std::uint64_t client_id, Deliver deliver) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enabled_) {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      Group& group = groups_[it->second];
      group.waiters.push_back(Waiter{client_id, std::move(deliver)});
      ++coalesced_;
      return Join{it->second, /*leader=*/false};
    }
  }
  const std::uint64_t id = next_group_++;
  Group group;
  group.key = key;
  group.waiters.push_back(Waiter{client_id, std::move(deliver)});
  groups_.emplace(id, std::move(group));
  if (enabled_) by_key_.emplace(key, id);
  return Join{id, /*leader=*/true};
}

std::vector<Coalescer::Waiter> Coalescer::complete(std::uint64_t group) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  std::vector<Waiter> waiters = std::move(it->second.waiters);
  by_key_.erase(it->second.key);
  groups_.erase(it);
  return waiters;
}

std::size_t Coalescer::detach(std::uint64_t group, std::uint64_t client_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return std::numeric_limits<std::size_t>::max();
  auto& waiters = it->second.waiters;
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    if (waiters[i].client_id == client_id) {
      waiters.erase(waiters.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  const std::size_t left = waiters.size();
  if (left == 0) {
    by_key_.erase(it->second.key);
    groups_.erase(it);
  }
  return left;
}

std::vector<Coalescer::Waiter> Coalescer::take_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Waiter> all;
  for (auto& [id, group] : groups_) {
    for (auto& w : group.waiters) all.push_back(std::move(w));
  }
  groups_.clear();
  by_key_.clear();
  return all;
}

std::size_t Coalescer::waiter_count(std::uint64_t group) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  return it == groups_.end() ? 0 : it->second.waiters.size();
}

std::size_t Coalescer::inflight_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return groups_.size();
}

std::uint64_t Coalescer::coalesced_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return coalesced_;
}

std::size_t top_level_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '{': case '[': ++depth; continue;
      case '}': case ']': --depth; continue;
      case '"': break;  // a key or string value starts
      default: continue;
    }
    // At a quote outside a string. Only keys at depth 1 can match.
    if (depth == 1 && line.compare(i, needle.size(), needle) == 0) {
      return i + needle.size();
    }
    in_string = true;  // some other key or string value; skip it
  }
  return std::string::npos;
}

std::string rewrite_response_id(const std::string& line, std::uint64_t id) {
  const std::size_t start = top_level_value(line, "id");
  if (start == std::string::npos) return line;
  std::size_t end = start;
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) ||
          line[end] == '-')) {
    ++end;
  }
  return line.substr(0, start) + std::to_string(id) + line.substr(end);
}

}  // namespace qulrb::router
