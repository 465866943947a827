// Tour of the HLA-lite federation layer — how to build your own federates.
//
// The paper runs its mobile grid on an HLA 1.3 federation; this example
// shows the reproduction's equivalent substrate with two custom federates
// outside the mobile-grid domain:
//
//   * SensorFederate  — publishes a noisy temperature reading every grant
//     (time-regulating with a 2 s lookahead, so readings arrive 2 s later),
//   * MonitorFederate — subscribes, smooths the stream with the same Brown
//     DES the broker uses, and raises an alarm interaction when the
//     *forecast* crosses a threshold,
//   * SensorFederate also subscribes to alarms and shuts its heater off.
//
// It then runs the federation twice and checks both runs agree — the
// determinism property the experiments depend on.
//
// Usage: federation_tour [duration=120]
#include <iostream>

#include "mobilegrid/mobilegrid.h"

using namespace mgrid;

namespace {

struct Reading final : sim::InteractionPayload {
  double celsius = 0.0;
  SimTime at = 0.0;
};

struct Alarm final : sim::InteractionPayload {
  double forecast = 0.0;
  SimTime at = 0.0;
};

class SensorFederate final : public sim::Federate {
 public:
  explicit SensorFederate(std::uint64_t seed)
      : Federate("sensor", /*lookahead=*/2.0), rng_(seed) {}

  void on_join() override { subscribe("alarm"); }

  void receive(const sim::Interaction& interaction) override {
    if (interaction.payload_as<Alarm>() != nullptr) heater_on_ = false;
  }

  void on_time_grant(SimTime t) override {
    temperature_ += (heater_on_ ? 0.4 : -0.6) + rng_.normal(0.0, 0.05);
    auto reading = std::make_shared<Reading>();
    reading->celsius = temperature_;
    reading->at = t;
    // Time regulation: the earliest we may timestamp is t + lookahead.
    send("reading", t + lookahead(), std::move(reading));
  }

  [[nodiscard]] bool heater_on() const noexcept { return heater_on_; }
  [[nodiscard]] double temperature() const noexcept { return temperature_; }

 private:
  util::RngStream rng_;
  double temperature_ = 20.0;
  bool heater_on_ = true;
};

class MonitorFederate final : public sim::Federate {
 public:
  MonitorFederate() : Federate("monitor"), smoother_(0.4) {}

  void on_join() override { subscribe("reading"); }

  void receive(const sim::Interaction& interaction) override {
    const auto* reading = interaction.payload_as<Reading>();
    if (reading == nullptr) return;
    smoother_.add(reading->celsius);
    ++readings_;
    // Alarm on the 5-step-ahead forecast, not the raw sample: the trend
    // matters, exactly like the broker forecasting an MN's position.
    const double forecast = smoother_.forecast(5.0);
    if (forecast > 30.0 && !alarm_raised_) {
      alarm_raised_ = true;
      auto alarm = std::make_shared<Alarm>();
      alarm->forecast = forecast;
      alarm->at = granted_time();
      send("alarm", granted_time(), std::move(alarm));
    }
  }

  [[nodiscard]] std::size_t readings() const noexcept { return readings_; }
  [[nodiscard]] bool alarm_raised() const noexcept { return alarm_raised_; }
  [[nodiscard]] double level() const noexcept { return smoother_.level(); }

 private:
  estimation::BrownDoubleSmoother smoother_;
  std::size_t readings_ = 0;
  bool alarm_raised_ = false;
};

struct RunOutcome {
  double final_temperature = 0.0;
  std::size_t readings = 0;
  bool alarm = false;
  sim::FederationStats stats;
};

RunOutcome run(double duration) {
  sim::Federation federation;
  auto sensor = std::make_shared<SensorFederate>(1234);
  auto monitor = std::make_shared<MonitorFederate>();
  federation.join(sensor);
  federation.join(monitor);
  federation.run(0.0, duration, 1.0);
  return RunOutcome{sensor->temperature(), monitor->readings(),
                    monitor->alarm_raised(), federation.stats()};
}

}  // namespace

int main(int argc, char** argv) {
  util::Config config =
      util::Config::from_args(std::vector<std::string>(argv + 1, argv + argc));
  const double duration = config.get_double("duration", 120.0);

  const RunOutcome first = run(duration);
  const RunOutcome second = run(duration);

  std::cout << "federation tour: sensor + monitor, " << duration
            << " s, 1 s grants, sensor lookahead 2 s\n\n";
  std::cout << "run 1: final temp "
            << stats::format_double(first.final_temperature, 2)
            << " C, readings " << first.readings << ", alarm "
            << (first.alarm ? "raised" : "never raised") << ", "
            << first.stats.interactions_sent << " interactions over "
            << first.stats.cycles << " cycles\n";
  std::cout << "run 2: final temp "
            << stats::format_double(second.final_temperature, 2)
            << " C, readings " << second.readings << ", alarm "
            << (second.alarm ? "raised" : "never raised") << '\n';

  const bool identical =
      first.final_temperature == second.final_temperature &&
      first.readings == second.readings && first.alarm == second.alarm &&
      first.stats.interactions_sent == second.stats.interactions_sent;
  std::cout << "\nruns agree bit-for-bit: "
            << (identical ? "YES" : "NO — this is a bug") << '\n';
  std::cout << "note the feedback loop's latency: reading (2 s lookahead) + "
               "alarm (same-cycle stamp, next-cycle delivery) — conservative "
               "time management makes the loop stable and reproducible.\n";
  return identical ? 0 : 1;
}
