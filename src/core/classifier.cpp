#include "core/classifier.h"

#include <cmath>
#include <stdexcept>

#include "obs/eventlog.h"
#include "stats/running_stats.h"

namespace mgrid::core {

MobilityClassifier::MobilityClassifier(ClassifierParams params)
    : params_(params) {
  if (params.window < 2) {
    throw std::invalid_argument("MobilityClassifier: window must be >= 2");
  }
  if (!(params.walk_velocity > 0.0)) {
    throw std::invalid_argument(
        "MobilityClassifier: walk_velocity must be > 0");
  }
  if (params.stop_epsilon < 0.0 ||
      params.stop_epsilon >= params.walk_velocity) {
    throw std::invalid_argument(
        "MobilityClassifier: stop_epsilon must be in [0, walk_velocity)");
  }
  if (params.heading_change_threshold <= 0.0 ||
      params.speed_cv_threshold <= 0.0) {
    throw std::invalid_argument(
        "MobilityClassifier: thresholds must be > 0");
  }
}

void MobilityClassifier::observe(MnId mn, SimTime t, geo::Vec2 position) {
  if (!mn.valid()) {
    throw std::invalid_argument("MobilityClassifier::observe: invalid MnId");
  }
  const std::size_t slot = mn.value();
  const std::size_t capacity = params_.window - 1;  // segments per window
  if (slot >= windows_.size()) {
    windows_.resize(slot + 1);
    segments_.resize((slot + 1) * capacity);
  }
  Window& window = windows_[slot];
  if (window.samples == 0) {
    ++tracked_;
    window.last_t = t;
    window.last_position = position;
    window.samples = 1;
    return;
  }
  if (t < window.last_t) {
    throw std::invalid_argument(
        "MobilityClassifier::observe: time went backwards");
  }
  if (t == window.last_t) return;  // duplicate tick

  Segment segment;
  const Duration dt = t - window.last_t;
  const geo::Vec2 displacement = position - window.last_position;
  segment.speed = displacement.norm() / dt;
  // The heading of a (near-)zero displacement is noise, not direction.
  if (segment.speed >= params_.stop_epsilon) {
    segment.heading = displacement.heading();
  }
  Segment* ring = &segments_[slot * capacity];
  if (window.samples < params_.window) {
    std::size_t next = window.head + window.samples - 1;
    if (next >= capacity) next -= capacity;
    ring[next] = segment;
    ++window.samples;
  } else {  // full: the oldest sample leaves, and its segment with it
    ring[window.head] = segment;
    if (++window.head == capacity) window.head = 0;
  }
  window.last_t = t;
  window.last_position = position;
}

MotionFeatures MobilityClassifier::features(MnId mn) const {
  MotionFeatures out;
  const std::size_t slot = mn.value();
  if (slot >= windows_.size()) return out;
  const Window& window = windows_[slot];
  out.samples = window.samples;
  if (window.samples < 2) return out;

  const std::size_t capacity = params_.window - 1;
  const Segment* ring = &segments_[slot * capacity];
  stats::RunningStats speeds;
  // Heading changes between consecutive moving segments.
  stats::RunningStats changes;
  std::size_t headings = 0;  // moving segments seen
  double last_heading = 0.0;
  std::size_t index = window.head;
  for (std::size_t i = 1; i < window.samples; ++i) {
    const Segment& segment = ring[index];
    if (++index == capacity) index = 0;
    speeds.add(segment.speed);
    if (segment.speed >= params_.stop_epsilon) {
      if (headings > 0) {
        changes.add(geo::angle_diff(segment.heading, last_heading));
      }
      last_heading = segment.heading;
      ++headings;
    }
  }
  out.mean_speed = speeds.mean();
  out.speed_stddev = speeds.stddev();
  if (headings > 0) out.heading = last_heading;

  if (headings >= 2) {
    // RMS movement produces zero-mean but high-variance heading changes;
    // use the RMS of the change (not the stddev about the mean) so a single
    // steady turn still reads as "one direction change".
    const double mean_sq =
        changes.variance() + changes.mean() * changes.mean();
    out.heading_change_stddev = std::sqrt(mean_sq);
  }
  return out;
}

mobility::MobilityPattern MobilityClassifier::classify(MnId mn) const {
  return classify(features(mn));
}

mobility::MobilityPattern MobilityClassifier::classify(
    const MotionFeatures& f) const {
  mobility::MobilityPattern pattern = mobility::MobilityPattern::kLinear;
  // Fig. 2, line 1: V_mn == 0 -> Stop.
  if (f.samples < 2 || f.mean_speed < params_.stop_epsilon) {
    pattern = mobility::MobilityPattern::kStop;
  } else if (f.mean_speed > params_.walk_velocity) {
    // Fig. 2: V_mn > V_walk -> running / vehicle -> Linear.
    pattern = mobility::MobilityPattern::kLinear;
  } else if (f.heading_change_stddev > params_.heading_change_threshold ||
             f.speed_cv() > params_.speed_cv_threshold) {
    // Walking: frequent velocity or direction change -> Random.
    pattern = mobility::MobilityPattern::kRandom;
  }
  if (obs::eventlog_enabled()) {
    obs::evt::classified(pattern == mobility::MobilityPattern::kStop  ? 'S'
                         : pattern == mobility::MobilityPattern::kRandom
                             ? 'R'
                             : 'L');
  }
  return pattern;
}

void MobilityClassifier::forget(MnId mn) {
  const std::size_t slot = mn.value();
  if (slot >= windows_.size() || windows_[slot].samples == 0) return;
  windows_[slot] = Window{};
  --tracked_;
}

}  // namespace mgrid::core
