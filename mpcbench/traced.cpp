// The traced run: one evaluation observed through the Adversary hooks, the
// self-checks that tie it to the untraced run, and timed standalone calls
// into each layer's public API (the layer probes).
#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "mpcbench/bench.hpp"
#include "src/acs/acs.hpp"
#include "src/ba/aba.hpp"
#include "src/ba/ba.hpp"
#include "src/ba/coin.hpp"
#include "src/bcast/bc_bank.hpp"
#include "src/field/bivariate.hpp"
#include "src/graph/star.hpp"
#include "src/mpc/cir_eval.hpp"
#include "src/rs/oec_bank.hpp"
#include "src/vss/vss.hpp"
#include "src/vss/wire.hpp"

namespace mpcbench {

using namespace bobw;

namespace {

// ---- spans ------------------------------------------------------------------

/// In-memory spans around the benchmark's calls into each layer, printed
/// when the traced run ends. Self time is the span minus its children.
class Tracer {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({name, parent, seconds_since(t0_), -1, ""});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id, std::string note = "") {
    spans_[static_cast<std::size_t>(id)].end = seconds_since(t0_);
    spans_[static_cast<std::size_t>(id)].note = std::move(note);
  }
  void print() const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double child = 0;
      for (const Span& c : spans_)
        if (c.parent == static_cast<int>(i)) child += c.end - c.start;
      std::printf("span %zu parent %d %-24s start %9.3f ms  dur %9.3f ms  self %9.3f ms  %s\n", i,
                  s.parent, s.name.c_str(), 1e3 * s.start, 1e3 * (s.end - s.start),
                  1e3 * (s.end - s.start - child), s.note.c_str());
    }
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start, end;
    std::string note;
  };
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- traffic observer ---------------------------------------------------------

/// Protocol layers by route leaf, and the phases of ΠCirEval by route prefix.
enum Layer { kAcast, kSba, kAba, kShare, kOpen, kReady, kOther, kLayers };
enum Phase { kInput, kPrep, kOnline, kPhases };
constexpr std::array<const char*, kLayers> kLayerNames = {
    "bcast.acast", "bcast.sba", "ba.aba", "vss.share", "rs.open", "mpc.ready", "other"};

Layer layer_of(const std::string& route) {
  const std::size_t slash = route.rfind('/');
  std::string leaf = route.substr(slash == std::string::npos ? 0 : slash + 1);
  leaf = leaf.substr(0, leaf.find_first_of(":0123456789"));
  if (leaf == "acast") return kAcast;
  if (leaf == "sba") return kSba;
  if (leaf == "aba") return kAba;
  if (leaf == "vss" || leaf == "wps") return kShare;  // dealer rows, ΠWPS points
  if (leaf == "open" || leaf == "out" || leaf == "gamma" || leaf == "suspect") return kOpen;
  if (leaf == "mpc") return kReady;
  return kOther;
}

Phase phase_of(const std::string& route) {
  if (route.rfind("mpc/in/", 0) == 0) return kInput;
  if (route.rfind("mpc/prep/", 0) == 0) return kPrep;
  return kOnline;  // mpc/mul:*, mpc/out, and the ready flood on "mpc"
}

struct Counter {
  std::uint64_t msgs = 0, bits = 0;
  Tick first = std::numeric_limits<Tick>::max(), last = 0;
  void add(const Msg& m) {
    ++msgs;
    bits += m.bits();
    first = std::min(first, m.sent_at);
    last = std::max(last, m.sent_at);
  }
};

/// A passive observer wrapped around the workload's adversary: it forwards
/// every hook and, in delay_override (called once per posted message),
/// books honest traffic by layer and phase. It never changes a delay.
class Observer : public Adversary {
 public:
  explicit Observer(std::shared_ptr<Adversary> inner) : inner_(std::move(inner)) {
    if (inner_)
      for (int c : inner_->corrupt_set()) corrupt(c);
  }

  bool participates(int p) const override { return inner_ && inner_->participates(p); }
  bool active(int p) const override { return inner_ && inner_->active(p); }
  std::optional<Tick> epoch_period() const override {
    return inner_ ? inner_->epoch_period() : std::nullopt;
  }
  void on_epoch(std::uint64_t e, Tick now) override {
    if (inner_) inner_->on_epoch(e, now);
  }
  bool filter_outgoing(Msg& m, Rng& rng) override {
    return !inner_ || inner_->filter_outgoing(m, rng);
  }

  std::optional<Tick> delay_override(const Msg& m) override {
    if (!is_corrupt(m.from)) book(m);
    return inner_ ? inner_->delay_override(m) : std::nullopt;
  }

  std::array<Counter, kLayers> layer;
  std::array<Counter, kPhases> phase;
  /// Per ΠABA instance (route): the highest round of an honest EST/AUX.
  std::map<RouteId, int> aba_rounds;

 private:
  void book(const Msg& m) {
    if (m.route >= cls_.size()) cls_.resize(m.route + 1, kUnclassified);
    std::uint8_t& c = cls_[m.route];
    if (c == kUnclassified) {
      const std::string& name = route_name(m);
      c = static_cast<std::uint8_t>(layer_of(name) | phase_of(name) << 4);
    }
    const int l = c & 0xF;
    layer[static_cast<std::size_t>(l)].add(m);
    phase[static_cast<std::size_t>(c >> 4)].add(m);
    if (l == kAba && (m.type == Aba::kEst || m.type == Aba::kAux)) {
      Reader rd(m.body);
      int& r = aba_rounds[m.route];
      r = std::max(r, static_cast<int>(rd.u32()));
    }
  }
  static constexpr std::uint8_t kUnclassified = 0xFF;
  std::shared_ptr<Adversary> inner_;
  std::vector<std::uint8_t> cls_;
};

struct Observed {
  MpcResult res;
  double wall_s = 0;
  std::size_t sba_schedules = 0, acast_windows = 0;
  double decode_hit_rate = 0;
};

NetConfig net_of(const MpcConfig& cfg) {
  NetConfig net;
  net.mode = cfg.mode;
  net.delta = cfg.delta;
  net.async_min = cfg.async_min;
  net.async_max = cfg.async_max;
  if (cfg.sync_min > 0) net.sync_min_delay = cfg.sync_min;
  net.clamp_sync_min();
  return net;
}

/// run_mpc's body, with the observer as the Sim's adversary so that the
/// Sim (shared-state keys, decode-cache counters) stays readable afterwards.
Observed run_observed(const Workload& w, const MpcConfig& cfg,
                      const std::shared_ptr<Observer>& obs) {
  const Clock::time_point t0 = Clock::now();
  Observed o;
  auto owned = std::make_unique<Sim>(cfg.n, net_of(cfg), cfg.seed, obs);
  Sim& sim = *owned;
  if (cfg.adversary) cfg.adversary->bind_routes(&sim.routes());
  sim.set_threads(cfg.threads, cfg.min_batch);
  IdealCoin coin(mix64(cfg.seed ^ 0xBEEF));
  const Ctx ctx = Ctx::make(cfg.n, cfg.ts, cfg.ta, cfg.delta, &coin);

  MpcResult& res = o.res;
  const auto n = static_cast<std::size_t>(cfg.n);
  res.outputs.resize(n);
  res.output_vectors.resize(n);
  res.finish_time.assign(n, 0);
  std::vector<std::shared_ptr<CirEval>> sessions(n);
  for (int i = 0; i < cfg.n; ++i) {
    if (!sim.honest(i) && !obs->participates(i)) continue;
    const auto k = static_cast<std::size_t>(i);
    sessions[k] = std::make_shared<CirEval>(
        sim.party(i), "mpc", w.circuit, w.inputs[k], ctx, /*base=*/0,
        [&res, &sim, k](const std::vector<Fp>& y) {
          res.outputs[k] = y[0];
          res.output_vectors[k] = y;
          res.finish_time[k] = sim.now();
        });
    sim.party(i).own(sessions[k]);
  }
  res.events = sim.run(~Tick{0}, cfg.max_events);
  res.truncated = sim.truncated();
  res.end_time = sim.now();
  res.honest_bits = sim.metrics().honest_bits();
  res.honest_msgs = sim.metrics().honest_msgs();
  for (int i = 0; i < cfg.n; ++i) {
    const auto& s = sessions[static_cast<std::size_t>(i)];
    if (s && sim.honest(i) && s->input_cs()) {
      res.input_cs = *s->input_cs();
      break;
    }
  }
  for (const std::string& key : sim.shared_state_keys()) {
    if (key.rfind("sba|", 0) == 0) ++o.sba_schedules;
    if (key.rfind("acast|", 0) == 0) ++o.acast_windows;
  }
  const double hits = static_cast<double>(sim.decode_cache_stats().hits.load());
  const double misses = static_cast<double>(sim.decode_cache_stats().misses.load());
  o.decode_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  // run_mpc's wall includes tearing the Sim down; so does this one.
  sessions.clear();
  owned.reset();
  o.wall_s = seconds_since(t0);
  return o;
}

// ---- layer probes -------------------------------------------------------------

/// A Sim at the workload's (n, ts, ta, network profile) with a fresh copy of
/// its adversary, as the unit tests build one per protocol.
struct World {
  std::shared_ptr<Adversary> adv;
  std::unique_ptr<Sim> sim;
  std::unique_ptr<IdealCoin> coin;
  Ctx ctx;
  Tick delta = 1;

  World(const Workload& w, std::uint64_t tag) {
    const std::uint64_t seed = mix64(w.seed ^ mix64(tag));
    if (w.make_adversary) adv = w.make_adversary();
    sim = std::make_unique<Sim>(w.cfg.n, net_of(w.cfg), seed, adv);
    sim->set_threads(w.cfg.threads);
    coin = std::make_unique<IdealCoin>(mix64(seed ^ 0xBEEF));
    ctx = Ctx::make(w.cfg.n, w.cfg.ts, w.cfg.ta, w.cfg.delta, coin.get());
    delta = w.cfg.delta;
  }
  int n() const { return ctx.n; }
  bool runs(int i) const { return sim->honest(i) || (adv && adv->participates(i)); }
  /// Runs to quiescence; host seconds.
  double run() {
    const Clock::time_point t0 = Clock::now();
    sim->run();
    if (sim->truncated()) throw std::runtime_error("probe run truncated");
    return seconds_since(t0);
  }
};

struct ProbeRun {
  double wall_ms = 0;
  double latency_delta = 0;  // last honest output tick / Δ
  std::string note;
};

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("probe check failed: " + what);
}

/// The value every honest party output; each must have one.
template <class T>
const T& agreed(const World& W, const std::vector<std::optional<T>>& out, const char* what) {
  const T* first = nullptr;
  for (int i = 0; i < W.n(); ++i) {
    if (!W.sim->honest(i)) continue;
    const std::optional<T>& v = out[static_cast<std::size_t>(i)];
    require(v.has_value() && (!first || *first == *v), what);
    first = &*v;
  }
  return *first;
}

double latest(const World& W, const std::vector<std::optional<Tick>>& at) {
  Tick last = 0;
  for (int i = 0; i < W.n(); ++i) {
    if (!W.sim->honest(i)) continue;
    require(at[static_cast<std::size_t>(i)].has_value(), "honest party without output");
    last = std::max(last, *at[static_cast<std::size_t>(i)]);
  }
  return static_cast<double>(last) / static_cast<double>(W.delta);
}

/// One ΠVSS sharing of L polynomials by (honest) dealer 0.
ProbeRun probe_vss(const Workload& w) {
  World W(w, 1);
  Rng rng(mix64(w.seed ^ 11));
  std::vector<Poly> qs;
  for (int l = 0; l < w.L; ++l) qs.push_back(Poly::random(W.ctx.ts, rng));
  const auto n = static_cast<std::size_t>(W.n());
  std::vector<std::optional<Tick>> at(n);
  std::vector<std::vector<Fp>> got(n);
  std::vector<std::unique_ptr<Vss>> inst(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.runs(static_cast<int>(i))) continue;
    inst[i] = std::make_unique<Vss>(W.sim->party(static_cast<int>(i)), "vss", 0, w.L, W.ctx, 0,
                                    [&, i](const std::vector<Fp>& sh) {
                                      got[i] = sh;
                                      at[i] = W.sim->now();
                                    });
  }
  W.sim->party(0).at(0, [&] { inst[0]->deal(qs); });
  ProbeRun p{1e3 * W.run(), latest(W, at), ""};
  for (std::size_t i = 0; i < n; ++i)
    if (W.sim->honest(static_cast<int>(i)))
      for (int l = 0; l < w.L; ++l)
        require(got[i][static_cast<std::size_t>(l)] ==
                    qs[static_cast<std::size_t>(l)].eval(alpha(static_cast<int>(i))),
                "vss share");
  return p;
}

/// n parallel ΠBA instances (as ΠACS and ΠPreProcessing run them), each
/// party's input bits drawn from the seed.
ProbeRun probe_ba(const Workload& w) {
  World W(w, 2);
  Rng rng(mix64(w.seed ^ 12));
  const auto n = static_cast<std::size_t>(W.n());
  // dec[j][i]: party i's decision in instance j.
  std::vector<std::vector<std::optional<bool>>> dec(n, std::vector<std::optional<bool>>(n));
  std::vector<std::optional<Tick>> at(n);
  std::vector<std::vector<std::unique_ptr<Ba>>> ba(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.runs(static_cast<int>(i))) continue;
    for (std::size_t j = 0; j < n; ++j) {
      ba[i].push_back(std::make_unique<Ba>(W.sim->party(static_cast<int>(i)),
                                           "ba:" + std::to_string(j), W.ctx, 0,
                                           [&, i, j](bool b) {
                                             dec[j][i] = b;
                                             at[i] = W.sim->now();
                                           }));
    }
    std::vector<bool> bits;
    for (std::size_t j = 0; j < n; ++j) bits.push_back(rng.next_bool());
    W.sim->party(static_cast<int>(i)).at(0, [&ba, i, bits] {
      for (std::size_t j = 0; j < bits.size(); ++j) ba[i][j]->set_input(bits[j]);
    });
  }
  ProbeRun p{1e3 * W.run(), latest(W, at), ""};
  for (const auto& instance : dec) agreed(W, instance, "ba agreement");
  return p;
}

/// One ΠABA with split inputs (party i inputs i mod 2), so coin rounds run.
ProbeRun probe_aba(const Workload& w) {
  World W(w, 3);
  const auto n = static_cast<std::size_t>(W.n());
  std::vector<std::optional<bool>> dec(n);
  std::vector<std::optional<Tick>> at(n);
  std::vector<std::unique_ptr<Aba>> aba(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.runs(static_cast<int>(i))) continue;
    aba[i] = std::make_unique<Aba>(W.sim->party(static_cast<int>(i)), "aba", W.ctx.ts,
                                   *W.ctx.coin, [&, i](bool b) {
                                     dec[i] = b;
                                     at[i] = W.sim->now();
                                   });
    W.sim->party(static_cast<int>(i)).at(0, [&aba, i] { aba[i]->start(i % 2 == 1); });
  }
  ProbeRun p{1e3 * W.run(), latest(W, at), ""};
  agreed(W, dec, "aba agreement");
  int rounds = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (W.sim->honest(static_cast<int>(i))) rounds = std::max(rounds, aba[i]->rounds_used());
  p.note = "rounds " + std::to_string(rounds);
  return p;
}

/// One ΠACS of single polynomials (the shape of ΠCirEval's input phase).
ProbeRun probe_acs(const Workload& w) {
  World W(w, 4);
  Rng rng(mix64(w.seed ^ 14));
  const auto n = static_cast<std::size_t>(W.n());
  std::vector<std::optional<std::vector<int>>> cs(n);
  std::vector<std::optional<Tick>> at(n);
  std::vector<std::unique_ptr<Acs>> acs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.runs(static_cast<int>(i))) continue;
    acs[i] = std::make_unique<Acs>(W.sim->party(static_cast<int>(i)), "acs", 1, W.ctx, 0,
                                   Acs::CsRule::kAllOnes, [&, i](const Acs::Output& o) {
                                     cs[i] = o.cs;
                                     at[i] = W.sim->now();
                                   });
    acs[i]->set_input({Poly::random(W.ctx.ts, rng)});
  }
  ProbeRun p{1e3 * W.run(), latest(W, at), ""};
  const std::vector<int>& common = agreed(W, cs, "acs agreement");
  require(static_cast<int>(common.size()) >= W.n() - W.ctx.ts, "|CS| >= n - ts");
  p.note = "|CS| " + std::to_string(common.size());
  return p;
}

/// n ΠBC slots on one bank, sender i broadcasting slot i at the start: the
/// share of honest (receiver, slot) outputs that arrived in fallback mode.
double probe_bc_fallback(const Workload& w) {
  World W(w, 5);
  const auto n = static_cast<std::size_t>(W.n());
  // final[i][s]: -1 no value yet, 0 regular, 1 fallback.
  std::vector<std::vector<int>> final_mode(n, std::vector<int>(n, -1));
  std::vector<int> senders;
  for (int s = 0; s < W.n(); ++s) senders.push_back(s);
  std::vector<std::unique_ptr<BcBank>> bank(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.runs(static_cast<int>(i))) continue;
    bank[i] = std::make_unique<BcBank>(
        W.sim->party(static_cast<int>(i)), "bc", senders, W.ctx, 0,
        [&, i](int slot, const std::optional<Bytes>& v, bool fallback) {
          if (v) final_mode[i][static_cast<std::size_t>(slot)] = fallback ? 1 : 0;
        });
    W.sim->party(static_cast<int>(i)).at(0, [&bank, i] {
      bank[i]->broadcast(static_cast<int>(i), Bytes{static_cast<std::uint8_t>(i), 0x5A});
    });
  }
  W.run();
  double outputs = 0, fallbacks = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!W.sim->honest(static_cast<int>(i))) continue;
    for (std::size_t s = 0; s < n; ++s) {
      if (final_mode[i][s] < 0) continue;
      ++outputs;
      fallbacks += final_mode[i][s];
    }
  }
  require(outputs > 0, "bc outputs");
  return fallbacks / outputs;
}

/// Median over batches of the per-call time of `fn`, in ns; each batch is
/// sized to take about 5 ms.
template <class F>
double ns_per_call(F&& fn) {
  const Clock::time_point c0 = Clock::now();
  fn();
  const double once = std::max(1e-9, seconds_since(c0));
  const int calls = std::max(1, static_cast<int>(5e-3 / once));
  std::vector<double> batch;
  for (int b = 0; b < 7; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < calls; ++c) fn();
    batch.push_back(1e9 * seconds_since(t0) / calls);
  }
  std::sort(batch.begin(), batch.end());
  return batch[batch.size() / 2];
}

struct Micro {
  double oec_open_us = 0, points_per_decode = 0;
  double rows_mb_per_s = 0;
  double bivariate_row_ns = 0, interpolate_ns = 0;
  double star_us = 0;
};

Micro probe_micro(const Workload& w, Tracer& tr, int parent) {
  const int n = w.cfg.n, ts = w.cfg.ts, L = w.L;
  Rng rng(mix64(w.seed ^ 15));
  Micro m;
  std::uint64_t sink = 0;  // keeps every timed result live

  // OEC: open L lanes from the n α-points, the first ts of them wrong.
  int s = tr.open("rs.oec_bank", parent);
  std::vector<Poly> qs;
  for (int l = 0; l < L; ++l) qs.push_back(Poly::random(ts, rng));
  std::vector<std::vector<Fp>> ys(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int l = 0; l < L; ++l)
      ys[static_cast<std::size_t>(i)].push_back(
          qs[static_cast<std::size_t>(l)].eval(alpha(i)) + (i < ts ? Fp(1 + rng.next_below(99)) : Fp(0)));
  int points = 0;
  m.oec_open_us = 1e-3 * ns_per_call([&] {
    OecBank bank(ts, ts, L);
    for (int i = 0; i < n && !bank.all_done(); ++i) bank.add_point(alpha(i), ys[static_cast<std::size_t>(i)]);
    require(bank.all_done(), "oec decodes");
    for (int l = 0; l < L; ++l)
      require(bank.value(l) == qs[static_cast<std::size_t>(l)].constant_term(), "oec value");
    points = bank.points_received();
  });
  m.points_per_decode = points;
  tr.close(s);

  // Codec: L dealer rows of degree ts through encode_rows/decode_rows.
  s = tr.open("vss.wire_rows", parent);
  const Bytes enc = wire::encode_rows(qs, ts);
  const double rows_ns = ns_per_call([&] {
    const Bytes b = wire::encode_rows(qs, ts);
    const auto rows = wire::decode_rows(b, L, ts);
    require(rows && *rows == qs, "rows round trip");
    sink += b.size();
  });
  m.rows_mb_per_s = 2.0 * static_cast<double>(enc.size()) / rows_ns * 1e3;
  tr.close(s);

  // Field: rows of a symmetric bivariate and degree-ts interpolation.
  s = tr.open("field.bivariate_row", parent);
  const SymBivariate Q = SymBivariate::random_embedding(ts, qs[0], rng);
  int at = 0;
  m.bivariate_row_ns = ns_per_call([&] {
    sink += Q.row(alpha(at++ % n)).coeff(0).value();
  });
  tr.close(s);
  s = tr.open("field.interpolate", parent);
  std::vector<Fp> xs, vs;
  for (int i = 0; i <= ts; ++i) {
    xs.push_back(alpha(i));
    vs.push_back(qs[0].eval(alpha(i)));
  }
  m.interpolate_ns = ns_per_call([&] {
    const Poly p = Poly::interpolate(xs, vs);
    require(p == qs[0], "interpolation");
    sink += p.constant_term().value();
  });
  tr.close(s);

  // Graph: an (n, ts)-star where the last ts parties disagree with half of
  // the rest.
  s = tr.open("graph.find_star", parent);
  Graph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (v < n - ts || u % 2 == 0) g.add_edge(u, v);
  m.star_us = 1e-3 * ns_per_call([&] {
    const auto star = find_star(g, ts);
    require(star && is_star(g, star->E, star->F, ts), "star found");
    sink += star->E.size();
  });
  tr.close(s);
  std::printf("probe sink %llu\n", static_cast<unsigned long long>(sink));
  return m;
}

}  // namespace

int run_traced(const std::string& name, std::uint64_t seed, const std::string& self) {
  Tracer tr;
  const int root = tr.open("traced_run", -1);
  const Workload w = make_workload(name, seed);
  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  auto timed_eval = [&](const MpcConfig& cfg, const char* span) {
    const int s = tr.open(span, root);
    const Clock::time_point t0 = Clock::now();
    MpcResult r = run_mpc(w.circuit, w.inputs, cfg);
    const double wall = seconds_since(t0);
    ++attempted;
    const std::string why = check_eval(w, r);
    if (!why.empty()) ++failed;
    tr.close(s, why.empty() ? "ok" : why);
    return std::make_pair(std::move(r), wall);
  };

  // 1. Evaluation 0 through run_mpc: in a fresh process of this binary
  //    (first, so that the two processes' peaks do not overlap), then here
  //    as a warm-up (the first evaluation in a process runs slower), then
  //    timed at the workload's thread count and at the other one (1 <-> 2).
  int s = tr.open("run_mpc.child_process", root);
  const std::string cmd = "'" + self + "' --fingerprint --workload " + name + " --seed " +
                          std::to_string(seed);
  std::string child;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[4096];
    while (std::fgets(buf, sizeof buf, p)) child += buf;
    if (pclose(p) != 0) problems.push_back("child process failed");
  } else {
    problems.push_back("cannot start child process");
  }
  if (!child.empty() && child.back() == '\n') child.pop_back();
  tr.close(s);

  const MpcResult warm = timed_eval(w.eval_config(0), "run_mpc.warmup").first;
  const auto [base, base_wall] = timed_eval(w.eval_config(0), "run_mpc");
  const std::string ref = fingerprint(base);
  if (child != ref) problems.push_back("fingerprint differs in a fresh process");
  if (fingerprint(warm) != ref) problems.push_back("evaluation 0 repeated differently");
  MpcConfig alt = w.eval_config(0);
  alt.threads = w.cfg.threads == 1 ? 2 : 1;
  const auto [other, other_wall] = timed_eval(alt, "run_mpc.threads_swapped");
  if (fingerprint(other) != ref) problems.push_back("fingerprint differs at threads " +
                                                    std::to_string(alt.threads));
  const double wall_t1 = w.cfg.threads == 1 ? base_wall : other_wall;
  const double wall_t2 = w.cfg.threads == 1 ? other_wall : base_wall;

  // 2. The same evaluation observed layer by layer, twice, each time after
  //    an untraced run: the overhead compares the faster run of each kind,
  //    since host noise only ever slows a run down.
  std::shared_ptr<Observer> obs;
  Observed o;
  double base_min = base_wall, observed_min = 0;
  for (int rep = 0; rep < 2; ++rep) {
    if (rep > 0) base_min = std::min(base_min, timed_eval(w.eval_config(0), "run_mpc").second);
    s = tr.open("run_observed", root);
    const MpcConfig ocfg = w.eval_config(0);  // fresh adversary, same run seed
    obs = std::make_shared<Observer>(ocfg.adversary);
    o = run_observed(w, ocfg, obs);
    ++attempted;
    if (const std::string why = check_eval(w, o.res); !why.empty()) {
      ++failed;
      problems.push_back("observed run: " + why);
    }
    tr.close(s);
    if (fingerprint(o.res) != ref) problems.push_back("observed run differs from run_mpc");
    observed_min = rep == 0 ? o.wall_s : std::min(observed_min, o.wall_s);
  }
  std::uint64_t msgs = 0, bits = 0;
  for (const Counter& c : obs->layer) msgs += c.msgs, bits += c.bits;
  if (msgs != base.honest_msgs || bits != base.honest_bits || obs->layer[kOther].msgs != 0)
    problems.push_back("per-layer honest traffic does not sum to the run's");
  for (std::size_t l = 0; l < kLayers; ++l)
    std::printf("layer %-12s msgs %10llu  Mbit %10.3f\n", kLayerNames[l],
                static_cast<unsigned long long>(obs->layer[l].msgs), obs->layer[l].bits / 1e6);

  // 3. Layer probes.
  const int probes = tr.open("probes", root);
  // Each protocol probe runs three times; its wall time is their median.
  auto probe = [&](const char* span, auto&& fn) {
    const int p = tr.open(span, probes);
    std::vector<ProbeRun> runs;
    for (int k = 0; k < 3; ++k) runs.push_back(fn(w));
    for (const ProbeRun& r : runs)
      if (r.latency_delta != runs[0].latency_delta || r.note != runs[0].note)
        problems.push_back(std::string(span) + " repeated differently");
    std::sort(runs.begin(), runs.end(),
              [](const ProbeRun& a, const ProbeRun& b) { return a.wall_ms < b.wall_ms; });
    tr.close(p, runs[1].note);
    return runs[1];
  };
  const ProbeRun vss = probe("vss.Vss", probe_vss);
  const ProbeRun ba = probe("ba.Ba_xn", probe_ba);
  probe("ba.Aba", probe_aba);  // a span only
  const ProbeRun acs = probe("acs.Acs", probe_acs);
  s = tr.open("bcast.BcBank", probes);
  const double fallback_frac = probe_bc_fallback(w);
  tr.close(s);
  const Micro micro = probe_micro(w, tr, probes);
  tr.close(probes);
  tr.close(root);
  tr.print();

  std::vector<int> rounds;
  for (const auto& [route, r] : obs->aba_rounds) rounds.push_back(r);
  std::sort(rounds.begin(), rounds.end());
  if (rounds.empty()) rounds.push_back(0);
  const double dl = static_cast<double>(w.cfg.delta);
  auto mbit = [](const Counter& c) { return static_cast<double>(c.bits) / 1e6; };
  auto count = [](const Counter& c) { return static_cast<double>(c.msgs); };
  auto span = [dl](const Counter& c) {
    return c.msgs ? static_cast<double>(c.last - c.first) / dl : 0.0;
  };
  const auto& L = obs->layer;
  const auto& P = obs->phase;
  const double events = static_cast<double>(base.events);

  for (const std::string& p : problems) std::fprintf(stderr, "self-check failed: %s\n", p.c_str());
  print_result(problems.empty() && failed == 0, attempted, failed,
               {{"bcast.acast.msgs", count(L[kAcast]), "count"},
                {"bcast.acast.mbit", mbit(L[kAcast]), "Mbit"},
                {"bcast.sba.msgs", count(L[kSba]), "count"},
                {"bcast.sba.mbit", mbit(L[kSba]), "Mbit"},
                {"bcast.sba_schedules", static_cast<double>(o.sba_schedules), "count"},
                {"bcast.acast_windows", static_cast<double>(o.acast_windows), "count"},
                {"bcast.decode_hit_rate", o.decode_hit_rate, "frac"},
                {"bcast.fallback_frac", fallback_frac, "frac"},
                {"ba.aba.msgs", count(L[kAba]), "count"},
                {"ba.aba.mbit", mbit(L[kAba]), "Mbit"},
                {"ba.instances", static_cast<double>(obs->aba_rounds.size()), "count"},
                {"ba.wall_ms", ba.wall_ms, "ms"},
                {"ba.latency_delta", ba.latency_delta, "delta"},
                {"ba.aba_rounds_p50", static_cast<double>(rounds[rounds.size() / 2]), "rounds"},
                {"ba.aba_rounds_max", static_cast<double>(rounds.back()), "rounds"},
                {"vss.share.msgs", count(L[kShare]), "count"},
                {"vss.share.mbit", mbit(L[kShare]), "Mbit"},
                {"vss.wall_ms", vss.wall_ms, "ms"},
                {"vss.latency_delta", vss.latency_delta, "delta"},
                {"acs.wall_ms", acs.wall_ms, "ms"},
                {"acs.latency_delta", acs.latency_delta, "delta"},
                {"phase.input.msgs", count(P[kInput]), "count"},
                {"phase.input.mbit", mbit(P[kInput]), "Mbit"},
                {"phase.input.span_delta", span(P[kInput]), "delta"},
                {"phase.prep.msgs", count(P[kPrep]), "count"},
                {"phase.prep.mbit", mbit(P[kPrep]), "Mbit"},
                {"phase.prep.span_delta", span(P[kPrep]), "delta"},
                {"phase.online.msgs", count(P[kOnline]), "count"},
                {"phase.online.mbit", mbit(P[kOnline]), "Mbit"},
                {"phase.online.span_delta", span(P[kOnline]), "delta"},
                {"rs.oec_open_us", micro.oec_open_us, "us"},
                {"rs.points_per_decode", micro.points_per_decode, "count"},
                {"field.bivariate_row_ns", micro.bivariate_row_ns, "ns"},
                {"field.interpolate_ns", micro.interpolate_ns, "ns"},
                {"codec.rows_mb_per_s", micro.rows_mb_per_s, "MB/s"},
                {"graph.star_us", micro.star_us, "us"},
                {"sim.events", events, "count"},
                {"sim.events_per_s", events / base_min, "1/s"},
                {"sim.thread_speedup", wall_t1 / wall_t2, "x"},
                {"trace.overhead_frac", observed_min / base_min - 1.0, "frac"}});
  return problems.empty() ? 0 : 1;
}

}  // namespace mpcbench
