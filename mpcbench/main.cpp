// mpcbench — end-to-end benchmark of bobw::run_mpc.
//
//   mpcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the set-ups and then closed-loop evaluations for <s>
// seconds and prints the end-to-end metrics; --trace 1 runs the traced
// evaluation and the layer probes and prints the per-layer metrics. The last
// stdout line is the JSON result. `--fingerprint` (internal) prints the
// fingerprint of evaluation 0 and exits; the traced run re-invokes the
// binary with it to check determinism across processes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <sys/resource.h>
#include <unordered_map>

#include "mpcbench/bench.hpp"

namespace mpcbench {

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// The host's speed drifts by up to ±30% over minutes (contention from
// other tenants; CPU time tracks wall time, so it is no escape). Wall times
// are therefore reported in reference-seconds: each timed interval is
// divided by the time of this fixed kernel, run right before and after it,
// and multiplied by kReferenceS. The kernel is the benchmark's own code, so
// no change to the library moves it. Its access pattern, hash-map lookups
// into freshly allocated shared buffers, is the simulator's dispatch and
// decode-cache pattern, and it slows with an evaluation: on a 4-core
// 2.1 GHz host, repeated runs of one workload seed spread 3-10% in host
// seconds and 3-5% in reference-seconds. Its ratio to an evaluation moves
// over hours, so reference-seconds compare runs made close together. It
// runs on one thread even for the 2-thread workload: a 2-thread kernel
// tracked that workload worse (9% spread against 5%).
constexpr double kReferenceS = 0.040;  // the kernel's time on that host when first measured

double reference_seconds() {
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<std::uint64_t, std::shared_ptr<std::vector<std::uint8_t>>> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (int i = 0; i < 150000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    auto& slot = table[x & 0x3FFFF];
    if (!slot || (x & 3) == 0)
      slot = std::make_shared<std::vector<std::uint8_t>>(32 + (x & 255),
                                                         static_cast<std::uint8_t>(x));
    sum += (*slot)[x % slot->size()];
  }
  if (sum == 0) std::printf("reference checksum 0\n");  // keeps the work live
  return seconds_since(t0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int run_untraced(const std::string& name, std::uint64_t seed, double seconds,
                 Clock::time_point process_start) {
  // Evaluation i of the timed loop runs the fixed evaluation i % kFixed, so
  // every run executes the same kFixed evaluations at least twice. The
  // simulated and count metrics are taken over their first pass, so they
  // repeat exactly for a workload seed whatever the host's speed; the
  // second pass must reproduce every fingerprint of the first. The tail is
  // taken over the first kTailEvals timed evaluations, the same sample on
  // every run; only eval_wall_s_p50 uses every evaluation of the
  // time-bounded loop.
  constexpr std::size_t kFixed = 8;
  constexpr std::size_t kTailEvals = 2 * kFixed;
  // The tail is the highest percentile with ten evaluations beyond it.
  constexpr std::size_t kTailRank = kTailEvals - 10;  // 1-based

  // Set-up: from process start through generating the workload and one
  // warm-up evaluation (the first evaluation in a process runs slower). The
  // warm-up is evaluation 0, which the timed loop repeats.
  const Workload w = make_workload(name, seed);
  std::uint64_t attempted = 0, failed = 0;
  bool deterministic = true;
  std::vector<std::string> fixed_fp(kFixed);
  auto evaluate = [&](std::size_t i) {
    const std::size_t f = i % kFixed;
    const bobw::MpcResult r = bobw::run_mpc(w.circuit, w.inputs,
                                            w.eval_config(static_cast<int>(f)));
    ++attempted;
    if (const std::string why = check_eval(w, r); !why.empty()) {
      ++failed;
      std::fprintf(stderr, "%s seed %llu evaluation %zu failed: %s\n", name.c_str(),
                   static_cast<unsigned long long>(seed), f, why.c_str());
    }
    const std::string fp = fingerprint(r);
    if (fixed_fp[f].empty()) fixed_fp[f] = fp;
    if (fp != fixed_fp[f]) {
      deterministic = false;
      std::fprintf(stderr, "determinism: evaluation %zu repeated differently\n  %s\n  %s\n", f,
                   fixed_fp[f].c_str(), fp.c_str());
    }
    return r;
  };

  // Every timed interval is followed by one reference run; an interval's
  // reference time is the mean of the runs before and after it (after only,
  // for the set-up).
  std::vector<double> host, refs;
  auto at_reference_speed = [&](double host_s) {
    host.push_back(host_s);
    const double after = reference_seconds();
    const double around = refs.empty() ? after : (refs.back() + after) / 2;
    refs.push_back(after);
    return host_s * kReferenceS / around;
  };

  evaluate(0);
  const double setup = at_reference_speed(seconds_since(process_start));

  std::vector<double> wall, latency;
  double msgs = 0, mbit = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; wall.size() < kTailEvals || seconds_since(start) < seconds; ++i) {
    const Clock::time_point e0 = Clock::now();
    const bobw::MpcResult r = evaluate(i);
    wall.push_back(at_reference_speed(seconds_since(e0)));
    if (i < kFixed) {
      latency.push_back(output_latency_delta(w, r));
      msgs += static_cast<double>(r.honest_msgs);
      mbit += static_cast<double>(r.honest_bits) / 1e6;
    }
  }

  std::vector<double> tail(wall.begin(), wall.begin() + kTailEvals);
  std::sort(tail.begin(), tail.end());
  std::printf("%s seed %llu: %zu timed evaluations; eval_wall_s_tail is p%.1f "
              "(rank %zu of the first %zu)\n",
              name.c_str(), static_cast<unsigned long long>(seed), wall.size(),
              100.0 * static_cast<double>(kTailRank) / static_cast<double>(kTailEvals),
              kTailRank, kTailEvals);
  std::printf("set-up, then evaluations, host s:");
  for (double s : host) std::printf(" %.3f", s);
  std::printf("\nreference kernel after each, host s:");
  for (double s : refs) std::printf(" %.4f", s);
  std::printf("\nfailed_frac %.4f (%llu of %llu evaluations, warm-up included)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  constexpr double kFixedD = static_cast<double>(kFixed);
  print_result(failed == 0 && deterministic, attempted, failed,
               {{"setup_s", setup, "s"},
                {"eval_wall_s_p50", median(wall), "s"},
                {"eval_wall_s_tail", tail[kTailRank - 1], "s"},
                {"output_latency_delta_p50", median(latency), "delta"},
                {"output_latency_delta_max", *std::max_element(latency.begin(), latency.end()),
                 "delta"},
                {"honest_msgs_per_eval", msgs / kFixedD, "count"},
                {"honest_mbit_per_eval", mbit / kFixedD, "Mbit"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return deterministic ? 0 : 1;
}

}  // namespace mpcbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mpcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const auto& n : mpcbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = mpcbench::Clock::now();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool fingerprint = false;
  try {
    for (int a = 1; a < argc; ++a) {
      const std::string arg = argv[a];
      if (arg == "--fingerprint") {
        fingerprint = true;
        continue;
      }
      if (a + 1 >= argc) return usage();
      const std::string val = argv[++a];
      if (arg == "--workload") workload = val;
      else if (arg == "--seed") seed = std::stoull(val);
      else if (arg == "--seconds") seconds = std::stod(val);
      else if (arg == "--trace") trace = std::stoi(val);
      else return usage();
    }
    const auto& names = mpcbench::workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end()) return usage();
    if (fingerprint) {
      const auto w = mpcbench::make_workload(workload, seed);
      std::printf("%s\n", mpcbench::fingerprint(bobw::run_mpc(w.circuit, w.inputs,
                                                              w.eval_config(0))).c_str());
      return 0;
    }
    if (trace == 1) return mpcbench::run_traced(workload, seed, argv[0]);
    if (trace != 0 || !(seconds > 0) || !std::isfinite(seconds)) return usage();
    return mpcbench::run_untraced(workload, seed, seconds, process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpcbench: %s\n", e.what());
    return 1;
  }
}
