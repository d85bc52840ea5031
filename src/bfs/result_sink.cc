#include "bfs/result_sink.h"

#include <cstring>

namespace pbfs {

void BatchSink::Reset(Vertex n, int num_workers) {
  PBFS_CHECK(num_workers > 0);
  if (target_mask_.size() != n) {
    target_mask_.assign(n, 0);
  } else {
    for (const Target& t : targets_) target_mask_[t.vertex] = 0;
  }
  n_ = n;
  slots_ = 0;
  targets_.clear();
  unresolved_.clear();
  khops_.clear();
  khop_depth_ = 0;
  std::memset(khop_mask_, 0, sizeof(khop_mask_));
  khop_active_ = false;
  khop_levels_ = 0;
  khop_counts_.resize(num_workers);
  for (std::vector<uint32_t>& counts : khop_counts_) counts.clear();
  std::memset(row_mask_, 0, sizeof(row_mask_));
  has_rows_ = false;
  rows_.clear();
}

void BatchSink::AddTarget(int slot, Vertex target) {
  PBFS_CHECK(slot >= 0 && slot < kMaxSlots && target < n_);
  slots_ = std::max(slots_, slot + 1);
  target_mask_[target] = 1;
  targets_.push_back({target, slot, kLevelUnreached, /*awaited=*/true});
}

void BatchSink::AddUnreachableTarget(int slot, Vertex target) {
  PBFS_CHECK(slot >= 0 && slot < kMaxSlots && target < n_);
  slots_ = std::max(slots_, slot + 1);
  targets_.push_back({target, slot, kLevelUnreached, /*awaited=*/false});
}

void BatchSink::AddKHop(int slot, Level radius) {
  PBFS_CHECK(slot >= 0 && slot < kMaxSlots);
  slots_ = std::max(slots_, slot + 1);
  khops_.emplace_back(slot, radius);
  khop_depth_ = std::max(khop_depth_, radius);
}

void BatchSink::AddRow(int slot, Level* row) {
  PBFS_CHECK(slot >= 0 && slot < kMaxSlots && row != nullptr);
  slots_ = std::max(slots_, slot + 1);
  if (rows_.size() <= static_cast<size_t>(slot)) rows_.resize(slot + 1);
  rows_[slot] = row;
  row_mask_[slot / 64] |= uint64_t{1} << (slot % 64);
  has_rows_ = true;
  std::fill(row, row + n_, kLevelUnreached);
}

void BatchSink::Seal() {
  // A target repeated within one slot is one entry.
  std::sort(targets_.begin(), targets_.end(),
            [](const Target& a, const Target& b) {
              return a.vertex != b.vertex ? a.vertex < b.vertex
                                          : a.slot < b.slot;
            });
  targets_.erase(std::unique(targets_.begin(), targets_.end(),
                             [](const Target& a, const Target& b) {
                               return a.vertex == b.vertex &&
                                      a.slot == b.slot;
                             }),
                 targets_.end());
  for (size_t i = 0; i < targets_.size(); ++i) {
    if (targets_[i].awaited) unresolved_.push_back(static_cast<uint32_t>(i));
  }
}

void BatchSink::ResolveTargets(Vertex v, const uint64_t* bits, int words,
                               Level depth) {
  auto it = std::lower_bound(
      targets_.begin(), targets_.end(), v,
      [](const Target& t, Vertex x) { return t.vertex < x; });
  // Only the task that owns v this level touches v's entries.
  for (; it != targets_.end() && it->vertex == v; ++it) {
    const int slot = it->slot;
    if (slot / 64 < words && ((bits[slot / 64] >> (slot % 64)) & 1) != 0) {
      it->level = depth;
    }
  }
}

bool BatchSink::Done(Level depth) {
  std::erase_if(unresolved_, [this](uint32_t i) {
    return targets_[i].level != kLevelUnreached;
  });
  if (!has_rows_ && depth >= khop_depth_ && unresolved_.empty()) return true;

  // Arm the k-hop counters for level depth + 1: the slots whose radius
  // reaches it, and one zeroed counter row per worker.
  const int next = depth + 1;
  std::memset(khop_mask_, 0, sizeof(khop_mask_));
  khop_active_ = false;
  for (const auto& [slot, radius] : khops_) {
    if (radius < next) continue;
    khop_mask_[slot / 64] |= uint64_t{1} << (slot % 64);
    khop_active_ = true;
  }
  if (khop_active_ && khop_levels_ < next) {
    khop_levels_ = next;
    for (std::vector<uint32_t>& counts : khop_counts_) {
      counts.resize(static_cast<size_t>(next) * slots_, 0);
    }
  }
  return false;
}

Level BatchSink::TargetLevel(int slot, Vertex target) const {
  auto it = std::lower_bound(
      targets_.begin(), targets_.end(), std::pair(target, slot),
      [](const Target& t, const std::pair<Vertex, int>& key) {
        return t.vertex != key.first ? t.vertex < key.first
                                     : t.slot < key.second;
      });
  PBFS_CHECK(it != targets_.end() && it->vertex == target &&
             it->slot == slot);
  return it->level;
}

std::vector<uint64_t> BatchSink::KHopSizes(int slot, Level max_hops) const {
  PBFS_CHECK(slot >= 0 && slot < slots_);
  std::vector<uint64_t> sizes(static_cast<size_t>(max_hops) + 1, 0);
  for (int h = 1; h <= max_hops; ++h) {
    uint64_t found = 0;
    if (h <= khop_levels_) {
      const size_t index = static_cast<size_t>(h - 1) * slots_ + slot;
      for (const std::vector<uint32_t>& counts : khop_counts_) {
        found += counts[index];
      }
    }
    sizes[h] = sizes[h - 1] + found;
  }
  return sizes;
}

}  // namespace pbfs
