// Tests for the ledger's own helpers: nearest-rank percentiles and the
// "ten beyond" rule, median and quartiles (checked against Python's
// statistics.quantiles), the open-loop reader's due-time accounting and the
// metric catalog. Exits non-zero on the first failure.
//
//   .bench_build/ledger_test
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "support.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void test_percentile() {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(101 - i);  // unsorted
  expect(ledger::percentile(values, 0.50) == 50.0, "p50 of 1..100 is 50");
  expect(ledger::percentile(values, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(ledger::percentile(values, 1.0) == 100.0, "p100 is the maximum");
  expect(ledger::percentile({7.0}, 0.99) == 7.0, "p99 of one sample");
  expect(ledger::percentile({}, 0.5) == 0.0, "empty sample gives 0");
  // Nearest rank: ceil(0.9 * 11) = 10th smallest.
  std::vector<double> eleven;
  for (int i = 1; i <= 11; ++i) eleven.push_back(i);
  expect(ledger::percentile(eleven, 0.90) == 10.0, "p90 of 1..11 is 10");
}

void test_ten_beyond() {
  expect(ledger::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond");
  expect(ledger::percentile_resolved(1000, 0.99), "p99 resolved at n=1000");
  expect(!ledger::percentile_resolved(999, 0.99), "p99 unresolved at n=999");
  expect(ledger::samples_beyond(999, 0.99) == 9, "999 samples: 9 beyond");
  expect(ledger::percentile_resolved(20, 0.50), "p50 resolved at n=20");
  expect(!ledger::percentile_resolved(19, 0.50), "p50 unresolved at n=19");
  expect(!ledger::percentile_resolved(0, 0.50), "nothing resolves at n=0");
}

void test_median_and_quartiles() {
  expect(ledger::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(ledger::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  // Reference values: statistics.quantiles(data, n=4).
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  ledger::Quartiles q = ledger::quartiles(ten);
  expect(near(q.q1, 2.75) && near(q.q2, 5.5) && near(q.q3, 8.25),
         "quartiles of 1..10");
  q = ledger::quartiles({3, 1, 4, 1, 5, 9, 2, 6});
  expect(near(q.q1, 1.25) && near(q.q2, 3.5) && near(q.q3, 5.75),
         "quartiles of 3,1,4,1,5,9,2,6");
  q = ledger::quartiles({2.0, 7.0});
  expect(near(q.q1, 0.75) && near(q.q2, 4.5) && near(q.q3, 8.25),
         "quartiles of two values extrapolate like Python");
  q = ledger::quartiles({5, 1, 3});
  expect(near(q.q1, 1.0) && near(q.q2, 3.0) && near(q.q3, 5.0),
         "quartiles of three values");
}

void test_due_time_accounting() {
  // 1000 reads/s from t=0: due at 0, 1 ms, 2 ms, ...
  ledger::DueSchedule schedule(1000.0, 16);
  schedule.start(0);
  expect(schedule.next_due() == 0, "first read is due at the start");
  schedule.record(0, 100);  // on time, 100 ns of service
  expect(schedule.next_due() == 1'000'000, "second read due 1 ms later");
  // A stall: the second read starts 2.5 ms late and takes 200 ns.
  schedule.record(3'500'000, 3'500'200);
  // The third read was due at 2 ms; it queued behind the stall, so its
  // latency counts from 2 ms, not from when it started.
  expect(schedule.next_due() == 2'000'000, "the schedule does not slip");
  schedule.record(3'500'300, 3'500'400);
  expect(schedule.latency_ns ==
             std::vector<double>({100.0, 2'500'200.0, 1'500'400.0}),
         "latency counts from the due time");
  expect(schedule.service_ns == std::vector<double>({100.0, 200.0, 100.0}),
         "service counts from the start");
  expect(schedule.recorded() == 3, "three reads recorded");
  // Due times are computed from the start: 3 reads at 3 per second land on
  // exact thirds with no accumulated rounding.
  ledger::DueSchedule thirds(3.0, 2);
  thirds.start(0);
  for (int i = 0; i < 3; ++i) thirds.record(0, 0);
  expect(thirds.next_due() == 1'000'000'000, "no drift over a second");
  // The third read found the preallocated storage full: counted, not kept.
  expect(thirds.latency_ns.size() == 2 && thirds.overflow() == 1,
         "reads beyond the capacity count as overflow");
}

void test_catalog() {
  std::set<std::string> names;
  bool valid = true;
  bool e2e_first = true;
  bool seen_layer = false;
  for (const ledger::MetricSpec& spec : ledger::metric_catalog()) {
    const std::string name(spec.name);
    valid = valid && !name.empty() && name.size() <= 64 &&
            std::isalnum(static_cast<unsigned char>(name[0]));
    for (const char c : name) {
      valid = valid && (std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == '.' || c == '-');
    }
    names.insert(name);
    if (!spec.end_to_end) seen_layer = true;
    if (spec.end_to_end && seen_layer) e2e_first = false;
  }
  expect(valid, "metric names use the allowed characters");
  expect(names.size() == ledger::metric_catalog().size(),
         "metric names are unique");
  expect(e2e_first, "end-to-end metrics come first");
  expect(names.count("setup_s") == 1, "setup_s is declared");
  ledger::MetricSet metrics;
  metrics.set("setup_s", 0.8127);
  const std::string json = metrics.to_json(true);
  expect(json.find("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}") !=
             std::string::npos,
         "metrics print with value and unit");
  expect(ledger::format_number(1.0 / 3.0) == "0.3333333333333333",
         "numbers print with all their digits");
}

}  // namespace

int main() {
  test_percentile();
  test_ten_beyond();
  test_median_and_quartiles();
  test_due_time_accounting();
  test_catalog();
  if (failures == 0) std::cout << "ledger_test: all checks passed\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
