// Checked registry reads for tests. obs::Registry::CounterValue answers 0
// for a name it does not know, and many assertions expect 0, so a misspelt
// name would pass silently; these helpers fail the calling test instead.

#ifndef ROVER_TESTS_TEST_METRICS_H_
#define ROVER_TESTS_TEST_METRICS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"

namespace rover {

// Value of counter `name`; an unknown name fails the test and reads 0.
inline uint64_t Count(const obs::Registry* registry, const std::string& name) {
  const obs::Counter* counter = registry->FindCounter(name);
  if (counter == nullptr) {
    ADD_FAILURE() << "no counter named \"" << name << "\"";
    return 0;
  }
  return counter->value();
}

// Value of gauge `name`; an unknown name fails the test and reads 0.
inline int64_t GaugeValue(const obs::Registry* registry, const std::string& name) {
  const obs::Gauge* gauge = registry->FindGauge(name);
  if (gauge == nullptr) {
    ADD_FAILURE() << "no gauge named \"" << name << "\"";
    return 0;
  }
  return gauge->value();
}

}  // namespace rover

#endif  // ROVER_TESTS_TEST_METRICS_H_
