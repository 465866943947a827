// Mobility-pattern classifier (paper §3.2.1, Fig. 2).
//
// From an MN's sampled positions it maintains a sliding observation window
// and classifies:
//   V_mn ~ 0                                  -> Stop State (SS)
//   V_mn > V_walk                             -> Linear Movement (running /
//                                                vehicle)
//   0 < V_mn <= V_walk, V and D constant      -> Linear Movement (walking)
//   0 < V_mn <= V_walk, V or D change often   -> Random Movement
//
// Per-MN state is dense: each MN's window is a fixed ring of the
// `window - 1` segments between its last `window` samples, in one flat array
// indexed by MnId value. A segment's speed and heading are derived once,
// when its later sample arrives, so featurising a window is one pass over
// cached segments that touches no hash table and allocates nothing. Memory
// grows with the largest MnId observed; ids are dense in practice.
#pragma once

#include <cstdint>
#include <vector>

#include "core/motion_features.h"
#include "mobility/mobility_model.h"
#include "util/types.h"

namespace mgrid::core {

struct ClassifierParams {
  /// Maximum walking velocity V_walk (m/s). Faster nodes are running or in
  /// a vehicle -> LMS by definition.
  double walk_velocity = 2.0;
  /// Speeds below this are "not moving" (m/s).
  double stop_epsilon = 0.05;
  /// Sliding window length in samples (>= 2).
  std::size_t window = 8;
  /// A walking node is RMS when the stddev of consecutive heading changes
  /// exceeds this (radians)...
  double heading_change_threshold = 0.7;
  /// ...or when the speed coefficient-of-variation exceeds this.
  double speed_cv_threshold = 0.5;
};

class MobilityClassifier {
 public:
  explicit MobilityClassifier(ClassifierParams params = {});

  /// Feeds one sampled position. Samples must be time-ordered per MN
  /// (equal timestamps are ignored).
  void observe(MnId mn, SimTime t, geo::Vec2 position);

  /// Classifies from the current window. An MN with fewer than 2 samples is
  /// SS (nothing has been seen moving yet).
  [[nodiscard]] mobility::MobilityPattern classify(MnId mn) const;
  /// Classifies features already computed by features(), so a caller that
  /// also clusters on them runs the window pass once.
  [[nodiscard]] mobility::MobilityPattern classify(
      const MotionFeatures& features) const;

  /// Motion features for the clusterer (zeroed when unknown MN).
  /// Allocation-free.
  [[nodiscard]] MotionFeatures features(MnId mn) const;

  /// Drops an MN's history (e.g. when it leaves the grid).
  void forget(MnId mn);

  [[nodiscard]] std::size_t tracked_count() const noexcept {
    return tracked_;
  }
  [[nodiscard]] const ClassifierParams& params() const noexcept {
    return params_;
  }

 private:
  /// The move between two consecutive samples, derived once when the later
  /// sample arrives: its speed and, when moving, its heading.
  struct Segment {
    double speed = 0.0;
    double heading = 0.0;
  };
  /// One MN's window: its newest sample plus a ring of the segments between
  /// the `samples` it holds, the oldest at `head`.
  struct Window {
    SimTime last_t = 0.0;
    geo::Vec2 last_position;
    std::uint32_t head = 0;
    std::uint32_t samples = 0;
  };

  ClassifierParams params_;
  /// By MnId value; 0 samples = not tracked.
  std::vector<Window> windows_;
  /// Segment rings: MN m owns the `window - 1` slots from
  /// m * (window - 1).
  std::vector<Segment> segments_;
  std::size_t tracked_ = 0;
};

}  // namespace mgrid::core
