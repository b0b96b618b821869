// The benchmark's named workloads: each is a list of simulated worlds built
// through the public exp::testbed API, plus the analysis read off each
// world after its run. README.md says why each workload exists.
#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/testbed.h"

namespace e2e {

using outputs = std::vector<std::pair<std::string, double>>;

/// One built, not yet run, world.
struct world {
  std::unique_ptr<mcc::exp::testbed> tb;
  mcc::sim::time_ns horizon = 0;
  /// Reads the world's analysis outputs after the run (containment reports,
  /// session roll-ups, receiver averages).
  std::function<outputs()> analyse;
};

struct workload_spec {
  std::string name;
  std::uint64_t default_seed = 1;
  /// Sweep worker threads the workload's worlds run on.
  int threads = 1;
  std::size_t worlds = 1;
  /// Builds world `index` from its sweep seed (exp::point_seed of the run's
  /// seed and the index): testbed constructor and attach calls only.
  std::function<world(std::size_t index, std::uint64_t seed)> build;
};

[[nodiscard]] const std::vector<workload_spec>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const workload_spec* find_workload(const std::string& name);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H
