// End-to-end benchmark of the best-of-both-worlds MPC stack.
//
// A workload is a network profile, a fault schedule, a circuit and inputs,
// all drawn from one workload seed. The untraced run evaluates it through
// the public bobw::run_mpc in a closed loop (one client: the next
// evaluation starts when the previous one returns) and checks every output
// against the cleartext circuit. The traced run attributes one evaluation to
// the protocol layers from outside: it watches traffic through the public
// Adversary hooks and times standalone calls into each layer's public API.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/runner.hpp"

namespace mpcbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  /// Network profile and thresholds; `seed` and `adversary` are filled in
  /// per evaluation by eval_config().
  bobw::MpcConfig cfg;
  bobw::Circuit circuit{1};
  std::vector<bobw::Fp> inputs;
  /// Fresh adversary for one run (null: every party honest).
  std::function<std::shared_ptr<bobw::Adversary>()> make_adversary;
  /// The adversary's corrupt parties.
  std::set<int> corrupt;
  /// Polynomials per dealer in ΠPreProcessing's ΠTripSh sharings — the
  /// payload width the layer probes run at.
  int L = 1;

  bool synchronous() const { return cfg.mode == bobw::NetMode::kSynchronous; }
  /// Configuration of evaluation i: a run seed drawn from the workload seed
  /// and a fresh adversary.
  bobw::MpcConfig eval_config(int i) const;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Empty when the evaluation is correct, else the first failed check.
std::string check_eval(const Workload& w, const bobw::MpcResult& r);

/// Every simulated quantity of a run (outputs, finish ticks, CS, honest
/// msgs/bits, events, end tick) as text. Two runs of the same evaluation
/// must produce the same fingerprint at any thread count, in any process
/// and with or without the traced observer.
std::string fingerprint(const bobw::MpcResult& r);

/// Simulated tick at which the last honest party output, in Δ units.
double output_latency_delta(const Workload& w, const bobw::MpcResult& r);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: the last line the benchmark prints on stdout.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// Closed-loop evaluations for `seconds`, after the set-up; end-to-end
/// metrics. Returns the process exit code.
int run_untraced(const std::string& name, std::uint64_t seed, double seconds,
                 Clock::time_point process_start);

/// One observed evaluation plus the layer probes; per-layer metrics.
/// `self` is the benchmark binary, re-run to check cross-process
/// determinism. Returns the process exit code.
int run_traced(const std::string& name, std::uint64_t seed, const std::string& self);

}  // namespace mpcbench
