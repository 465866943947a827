#include "core/clustering.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/eventlog.h"

namespace mgrid::core {

SequentialClusterer::SequentialClusterer(ClusteringParams params)
    : params_(params) {
  if (!(params.alpha > 0.0)) {
    throw std::invalid_argument("SequentialClusterer: alpha must be > 0");
  }
  if (params.direction_weight < 0.0) {
    throw std::invalid_argument(
        "SequentialClusterer: direction_weight must be >= 0");
  }
}

ClusterId SequentialClusterer::create_cluster(const ClusterFeature& seed) {
  const ClusterId id{static_cast<ClusterId::value_type>(clusters_.size())};
  ClusterState state;
  state.info.id = id;
  state.info.centroid = seed;
  clusters_.push_back(std::move(state));
  live_.push_back(id.value());  // the largest id so far: stays ascending
  ++clusters_created_;
  return id;
}

void SequentialClusterer::add_member(ClusterState& cluster, MnId mn,
                                     const ClusterFeature& f) {
  cluster.sum_speed += f.speed;
  cluster.sum_dir_x += f.dir_x;
  cluster.sum_dir_y += f.dir_y;
  ++cluster.info.size;
  refresh_centroid(cluster);
  const std::size_t slot = mn.value();
  if (slot >= memberships_.size()) memberships_.resize(slot + 1);
  Membership& membership = memberships_[slot];
  if (!membership.cluster.valid()) ++member_count_;
  membership.cluster = cluster.info.id;
  membership.feature = f;
}

void SequentialClusterer::remove_member(ClusterState& cluster, MnId mn) {
  Membership& membership = memberships_[mn.value()];
  const ClusterFeature& f = membership.feature;
  cluster.sum_speed -= f.speed;
  cluster.sum_dir_x -= f.dir_x;
  cluster.sum_dir_y -= f.dir_y;
  --cluster.info.size;
  refresh_centroid(cluster);
  membership.cluster = ClusterId::invalid();
  --member_count_;
  if (cluster.info.size == 0) {  // retire
    const ClusterId::value_type id = cluster.info.id.value();
    clusters_[id].reset();
    live_.erase(std::lower_bound(live_.begin(), live_.end(), id));
  }
}

void SequentialClusterer::refresh_centroid(ClusterState& cluster) noexcept {
  if (cluster.info.size == 0) return;
  const double n = static_cast<double>(cluster.info.size);
  cluster.info.centroid.speed = cluster.sum_speed / n;
  cluster.info.centroid.dir_x = cluster.sum_dir_x / n;
  cluster.info.centroid.dir_y = cluster.sum_dir_y / n;
}

SequentialClusterer::ClusterState* SequentialClusterer::find_nearest(
    const ClusterFeature& f, double* out_distance) {
  ClusterState* best = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (const ClusterId::value_type id : live_) {
    ClusterState& cluster = *clusters_[id];
    const double d = f.distance_to(cluster.info.centroid);
    if (d < best_d) {
      best_d = d;
      best = &cluster;
    }
  }
  if (out_distance != nullptr) *out_distance = best_d;
  return best;
}

ClusterId SequentialClusterer::assign(MnId mn,
                                      const MotionFeatures& features) {
  if (!mn.valid()) {
    throw std::invalid_argument("SequentialClusterer::assign: invalid MnId");
  }
  const ClusterFeature f =
      ClusterFeature::from_motion(features, params_.direction_weight);

  // Detach from the current cluster first so the node's stale feature does
  // not drag the centroid it is being compared against.
  if (const std::optional<ClusterId> current = cluster_of(mn)) {
    remove_member(*clusters_[current->value()], mn);
  }

  double nearest_distance = 0.0;
  ClusterState* nearest = find_nearest(f, &nearest_distance);
  const bool cap_reached =
      params_.max_clusters != 0 && cluster_count() >= params_.max_clusters;
  ClusterId id;
  if (nearest != nullptr &&
      (nearest_distance <= params_.alpha || cap_reached)) {
    add_member(*nearest, mn, f);
    id = nearest->info.id;
  } else {
    id = create_cluster(f);
    add_member(*clusters_[id.value()], mn, f);
  }
  if (obs::eventlog_enabled()) {
    obs::evt::clustered(static_cast<std::int64_t>(id.value()),
                        clusters_[id.value()]->info.centroid.speed);
  }
  return id;
}

bool SequentialClusterer::remove(MnId mn) {
  const std::optional<ClusterId> current = cluster_of(mn);
  if (!current) return false;
  remove_member(*clusters_[current->value()], mn);
  return true;
}

void SequentialClusterer::reserve(std::size_t mn_count) {
  if (mn_count > memberships_.size()) memberships_.resize(mn_count);
}

std::optional<ClusterId> SequentialClusterer::cluster_of(MnId mn) const {
  const std::size_t slot = mn.value();
  if (slot >= memberships_.size() || !memberships_[slot].cluster.valid()) {
    return std::nullopt;
  }
  return memberships_[slot].cluster;
}

const ClusterInfo& SequentialClusterer::cluster(ClusterId id) const {
  if (!id.valid() || id.value() >= clusters_.size() ||
      !clusters_[id.value()]) {
    throw std::out_of_range("SequentialClusterer::cluster: unknown id");
  }
  return clusters_[id.value()]->info;
}

std::vector<ClusterInfo> SequentialClusterer::clusters() const {
  std::vector<ClusterInfo> out;
  out.reserve(live_.size());
  for (const ClusterId::value_type id : live_) {
    out.push_back(clusters_[id]->info);
  }
  return out;
}

void SequentialClusterer::rebuild(double merge_fraction) {
  if (merge_fraction < 0.0) {
    throw std::invalid_argument(
        "SequentialClusterer::rebuild: merge_fraction must be >= 0");
  }
  // Re-assign every member in MnId order for determinism. Each member keeps
  // its (stale) cluster id until its turn, which marks it as a member; only
  // the slot being visited changes.
  clusters_.clear();
  live_.clear();
  for (std::size_t slot = 0; slot < memberships_.size(); ++slot) {
    if (!memberships_[slot].cluster.valid()) continue;
    const MnId mn{static_cast<MnId::value_type>(slot)};
    const ClusterFeature f = memberships_[slot].feature;
    double nearest_distance = 0.0;
    ClusterState* nearest = find_nearest(f, &nearest_distance);
    const bool cap_reached =
        params_.max_clusters != 0 && cluster_count() >= params_.max_clusters;
    if (nearest != nullptr &&
        (nearest_distance <= params_.alpha || cap_reached)) {
      add_member(*nearest, mn, f);
    } else {
      const ClusterId id = create_cluster(f);
      add_member(*clusters_[id.value()], mn, f);
    }
  }

  // Merge pass: absorb clusters whose centroids ended up closer than
  // merge_fraction * alpha (BSAS refinement).
  const double merge_radius = merge_fraction * params_.alpha;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (!clusters_[i]) continue;
    for (std::size_t j = i + 1; j < clusters_.size(); ++j) {
      if (!clusters_[j]) continue;
      if (clusters_[i]->info.centroid.distance_to(
              clusters_[j]->info.centroid) > merge_radius) {
        continue;
      }
      // Move every member of j into i, in MnId order. The last one out
      // retires j.
      const ClusterId from = clusters_[j]->info.id;
      for (std::size_t slot = 0; slot < memberships_.size(); ++slot) {
        if (memberships_[slot].cluster != from) continue;
        const MnId mn{static_cast<MnId::value_type>(slot)};
        const ClusterFeature f = memberships_[slot].feature;
        remove_member(*clusters_[j], mn);
        add_member(*clusters_[i], mn, f);
      }
    }
  }
}

}  // namespace mgrid::core
