#include "cluster/ring.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/rng.h"

namespace mgrid::cluster {

HashRing::HashRing(RingOptions options) : options_(options) {
  if (options_.vnodes == 0) options_.vnodes = 1;
  if (options_.probes == 0) options_.probes = 1;
}

bool HashRing::add_node(const std::string& name) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), name);
  if (it != nodes_.end() && *it == name) return false;
  nodes_.insert(it, name);
  rebuild_points();
  ++version_;
  return true;
}

bool HashRing::remove_node(const std::string& name) {
  const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), name);
  if (it == nodes_.end() || *it != name) return false;
  nodes_.erase(it);
  rebuild_points();
  ++version_;
  return true;
}

const std::string& HashRing::owner(std::uint32_t mn) const {
  return nodes_[owner_index(mn)];
}

std::uint32_t HashRing::owner_index(std::uint32_t mn) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing::owner on an empty ring");
  }
  // Multi-probe lookup: the key hashes to `probes` positions; the winner is
  // the point with the smallest forward (clockwise) distance over all of
  // them. Ties break by (point, node index) so every process agrees.
  const std::uint64_t key = key_hash(mn);
  std::uint64_t best_distance = 0;
  const std::pair<std::uint64_t, std::uint32_t>* best = nullptr;
  for (std::size_t p = 0; p < options_.probes; ++p) {
    const std::uint64_t probe =
        util::splitmix64(key + p * 0x9E3779B97F4A7C15ull);
    const auto& point = points_[successor_index(probe)];
    const std::uint64_t distance = point.first - probe;  // mod-2^64 wraps
    if (best == nullptr || distance < best_distance ||
        (distance == best_distance && point < *best)) {
      best_distance = distance;
      best = &point;
    }
  }
  return best->second;
}

std::pair<std::uint64_t, std::uint32_t> HashRing::successor(
    std::uint64_t position) const {
  if (points_.empty()) {
    throw std::logic_error("HashRing::successor on an empty ring");
  }
  return points_[successor_index(position)];
}

std::size_t HashRing::successor_index(std::uint64_t position) const noexcept {
  // Points before the bucket's first are below its base (<= position);
  // points from the next bucket's first on are above position. So the
  // upper bound lies within this bucket's run.
  const std::uint64_t bucket = position >> bucket_shift_;
  std::size_t i = buckets_[bucket];
  const std::size_t end = buckets_[bucket + 1];
  while (i < end && points_[i].first <= position) ++i;
  return i == points_.size() ? 0 : i;  // wrap past 2^64
}

std::vector<std::string> HashRing::nodes() const { return nodes_; }

bool HashRing::contains(const std::string& name) const {
  return std::binary_search(nodes_.begin(), nodes_.end(), name);
}

std::uint64_t HashRing::key_hash(std::uint32_t mn) noexcept {
  return util::splitmix64(mn);
}

void HashRing::rebuild_points() {
  points_.clear();
  points_.reserve(nodes_.size() * options_.vnodes);
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    for (std::size_t v = 0; v < options_.vnodes; ++v) {
      const std::uint64_t point = util::splitmix64(
          util::fnv1a64(nodes_[n] + "#" + std::to_string(v)));
      points_.emplace_back(point, n);
    }
  }
  // nodes_ is sorted by name, so the index order is the name order and ties
  // break deterministically regardless of insertion order.
  std::sort(points_.begin(), points_.end());

  // Bucket index: the smallest power of two >= 4 buckets per point (capped
  // at 2^24 buckets), each holding the index of its first point.
  buckets_.clear();
  if (points_.empty()) return;
  const unsigned bits = std::min<unsigned>(
      static_cast<unsigned>(std::bit_width(4 * points_.size() - 1)), 24);
  bucket_shift_ = 64 - bits;
  const std::size_t bucket_count = std::size_t{1} << bits;
  buckets_.resize(bucket_count + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b < bucket_count; ++b) {
    const std::uint64_t base = static_cast<std::uint64_t>(b) << bucket_shift_;
    while (i < points_.size() && points_[i].first < base) ++i;
    buckets_[b] = static_cast<std::uint32_t>(i);
  }
  buckets_[bucket_count] = static_cast<std::uint32_t>(points_.size());
}

std::vector<std::uint32_t> moved_mns(const HashRing& before,
                                     const HashRing& after,
                                     const std::vector<std::uint32_t>& mns) {
  std::vector<std::uint32_t> moved;
  for (const std::uint32_t mn : mns) {
    if (before.owner(mn) != after.owner(mn)) moved.push_back(mn);
  }
  return moved;
}

}  // namespace mgrid::cluster
