// The three workloads, the per-evaluation output check and the result line.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "mpcbench/bench.hpp"
#include "src/sim/adversary_zoo.hpp"

namespace mpcbench {

using bobw::Circuit;
using bobw::Fp;
using bobw::MpcConfig;
using bobw::MpcResult;
using bobw::Rng;

namespace {

/// A random circuit of exactly `depth` multiplication layers of `width`
/// gates each. Every gate multiplies a wire of the previous layer by a
/// wire (sometimes passed through a linear gate) of any earlier layer; the
/// output is a random linear combination of the last layer.
Circuit random_circuit(int n, int depth, int width, Rng& rng) {
  Circuit c(n);
  std::vector<int> prev, below;
  for (int p = 0; p < n; ++p) prev.push_back(c.input(p));
  below = prev;
  auto pick = [&rng](const std::vector<int>& v) { return v[rng.next_below(v.size())]; };
  for (int d = 1; d <= depth; ++d) {
    std::vector<int> layer;
    for (int k = 0; k < width; ++k) {
      int b = pick(below);
      switch (rng.next_below(3)) {
        case 0: b = c.add(b, pick(below)); break;
        case 1: b = c.add_const(b, Fp::random(rng)); break;
        default: break;
      }
      layer.push_back(c.mul(pick(prev), b));
    }
    below.insert(below.end(), layer.begin(), layer.end());
    prev = std::move(layer);
  }
  int out = c.mul_const(prev[0], Fp::random(rng));
  for (std::size_t k = 1; k < prev.size(); ++k)
    out = c.add(out, c.mul_const(prev[k], Fp::random(rng)));
  c.set_output(out);
  if (c.mult_count() != depth * width || c.mult_depth() != depth)
    throw std::logic_error("random_circuit: wrong shape");
  return c;
}

/// ΠPreProcessing's per-dealer batch: L = ⌈c_M / (d+1−ts)⌉ with
/// d = ⌊(n−ts−1)/2⌋ (src/mpc/preprocess.cpp).
int preprocessing_L(const Circuit& c, int n, int ts) {
  const int per_ext = (n - ts - 1) / 2 + 1 - ts;
  return (std::max(1, c.mult_count()) + per_ext - 1) / per_ext;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sync_agree", "async_fallback",
                                                 "sync_wide_byz"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng(bobw::mix64(seed ^ 0x3D0B'E4C4'11A7'5EEDULL));
  MpcConfig& c = w.cfg;
  c.delta = 1000;
  if (name == "sync_agree") {
    // Round-crisp synchronous, all honest: the ACast/SBA/ABA planes carry
    // the run; field, codec and OEC work is small.
    c.n = 10, c.ts = 3, c.ta = 0;
    c.mode = bobw::NetMode::kSynchronous;
    c.threads = 1;
    w.circuit = bobw::circuits::pairwise_sums_product(c.n);
  } else if (name == "async_fallback") {
    // Delays uniform in [1, 4Δ], ta parties crashed at t = 0: the bcast
    // and ba layers on their fallback paths (ABA coin rounds, late ACast
    // outputs, fallback switches).
    c.n = 9, c.ts = 2, c.ta = 2;
    c.mode = bobw::NetMode::kAsynchronous;
    c.async_min = 1, c.async_max = 4 * c.delta;
    c.threads = 1;
    w.circuit = bobw::circuits::pairwise_sums_product(c.n);
    w.make_adversary = [] {
      auto a = std::make_shared<bobw::CrashAdversary>();
      a->corrupt(7);
      a->corrupt(8);
      return a;
    };
  } else if (name == "sync_wide_byz") {
    // Round-crisp synchronous with ts active Byzantines and c_M = 256:
    // payload work (dealing, codec, OEC error path) dominates; the only
    // workload on the parallel window executor.
    c.n = 7, c.ts = 2, c.ta = 0;
    c.mode = bobw::NetMode::kSynchronous;
    c.threads = 2;
    w.circuit = random_circuit(c.n, 4, 64, rng);
    w.make_adversary = [] {
      using bobw::zoo::Mal;
      return std::make_shared<bobw::zoo::ZooAdversary>(std::map<int, bobw::zoo::PartyPlan>{
          {5, {Mal::kGarble, 50, 0}}, {6, {Mal::kEquivocate, 0, 0}}});
    };
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  for (int i = 0; i < c.n; ++i) w.inputs.push_back(Fp::random(rng));
  w.L = preprocessing_L(w.circuit, c.n, c.ts);
  if (w.make_adversary) w.corrupt = w.make_adversary()->corrupt_set();
  return w;
}

MpcConfig Workload::eval_config(int i) const {
  MpcConfig c = cfg;
  c.seed = bobw::mix64(seed ^ bobw::mix64(0xE7A1'0000ULL + static_cast<std::uint64_t>(i)));
  if (make_adversary) c.adversary = make_adversary();
  return c;
}

std::string check_eval(const Workload& w, const MpcResult& r) {
  if (r.truncated) return "run truncated";
  const std::set<int>& corrupt = w.corrupt;
  const std::vector<Fp>* agreed = nullptr;
  for (int i = 0; i < w.cfg.n; ++i) {
    if (corrupt.count(i)) continue;
    const auto& y = r.output_vectors[static_cast<std::size_t>(i)];
    if (!y) return "honest party " + std::to_string(i) + " has no output";
    if (agreed && *agreed != *y) return "honest parties disagree";
    agreed = &*y;
  }
  if (static_cast<int>(r.input_cs.size()) < w.cfg.n - w.cfg.ts) return "|CS| < n - ts";
  std::vector<Fp> eff(w.inputs.size(), Fp(0));
  for (int j : r.input_cs) eff[static_cast<std::size_t>(j)] = w.inputs[static_cast<std::size_t>(j)];
  if (!agreed || *agreed != w.circuit.eval_outputs(eff)) return "output differs from f(CS inputs)";
  if (w.synchronous()) {
    for (int i = 0; i < w.cfg.n; ++i)
      if (!corrupt.count(i) &&
          std::find(r.input_cs.begin(), r.input_cs.end(), i) == r.input_cs.end())
        return "honest party " + std::to_string(i) + " missing from CS";
  }
  return "";
}

std::string fingerprint(const MpcResult& r) {
  std::ostringstream s;
  s << "msgs=" << r.honest_msgs << " bits=" << r.honest_bits << " events=" << r.events
    << " end=" << r.end_time << " truncated=" << r.truncated << " cs=";
  for (int j : r.input_cs) s << j << ',';
  for (std::size_t i = 0; i < r.output_vectors.size(); ++i) {
    s << " p" << i << "@" << r.finish_time[i] << '=';
    if (!r.output_vectors[i]) s << '-';
    else
      for (Fp y : *r.output_vectors[i]) s << y.value() << ',';
  }
  return s.str();
}

double output_latency_delta(const Workload& w, const MpcResult& r) {
  bobw::Tick last = 0;
  for (int i = 0; i < w.cfg.n; ++i)
    if (!w.corrupt.count(i)) last = std::max(last, r.finish_time[static_cast<std::size_t>(i)]);
  return static_cast<double>(last) / static_cast<double>(w.cfg.delta);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream s;
  s.precision(17);
  s << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k)
    s << (k ? ", " : "") << '"' << metrics[k].name << "\": {\"value\": " << metrics[k].value
      << ", \"unit\": \"" << metrics[k].unit << "\"}";
  s << "}}";
  std::printf("%s\n", s.str().c_str());
  std::fflush(stdout);
}

}  // namespace mpcbench
