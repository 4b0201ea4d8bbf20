// The key miter the oracle-guided attacks (sat_attack, appsat) share, and
// the CNF plumbing it and EquivalenceChecker use. Internal to src/attack;
// not part of the public API.
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>

#include "circuit/analysis.hpp"
#include "lock/combinational.hpp"
#include "obs/metrics.hpp"
#include "sat/encoder.hpp"
#include "sat/portfolio.hpp"
#include "support/require.hpp"

namespace pitfalls::attack::detail {

using lock::LockedCircuit;
using sat::ClauseSink;
using sat::Var;
using support::BitVec;

/// Global `attack.*` counters shared by the oracle-guided attacks:
/// dips = distinguishing inputs consumed (SAT attack + AppSAT), miter
/// clauses = attached clauses in the miter solver right after encoding,
/// key_bits_fixed = key bits pinned by successfully extracted keys.
/// Resolved once; defined in sat_attack.cpp.
struct AttackMetrics {
  obs::Counter& dips;
  obs::Counter& miter_clauses;
  obs::Counter& key_bits_fixed;
  static AttackMetrics& get();
};

/// Shared-input vector for one locked-circuit copy: data inputs from
/// `data_vars`, key inputs from `key_vars`, respecting netlist input order.
inline std::vector<Var> mix_inputs(const LockedCircuit& locked,
                                   const std::vector<Var>& data_vars,
                                   const std::vector<Var>& key_vars) {
  std::vector<Var> shared(locked.netlist.num_inputs());
  for (std::size_t i = 0; i < data_vars.size(); ++i)
    shared[locked.data_input_positions[i]] = data_vars[i];
  for (std::size_t i = 0; i < key_vars.size(); ++i)
    shared[locked.key_input_positions[i]] = key_vars[i];
  return shared;
}

inline std::vector<Var> fresh_vars(ClauseSink& sink, std::size_t count) {
  std::vector<Var> vars(count);
  for (auto& v : vars) v = sink.new_var();
  return vars;
}

/// The one incremental CNF an oracle-guided attack grows: data inputs x,
/// two key copies k1 and k2 over two encodings of the locked netlist, and a
/// *conditional* miter. DIP search solves under the assumption "miter
/// active"; key extraction solves the identical clause set (and all learned
/// clauses) without it. Observations become permanent constraints on both
/// key copies.
class KeyMiter {
 public:
  KeyMiter(const LockedCircuit& locked, std::size_t portfolio_workers)
      : locked_(locked),
        engine_(sat::PortfolioConfig{.workers = portfolio_workers}),
        x_(fresh_vars(engine_, locked.num_data_inputs())),
        k1_(fresh_vars(engine_, locked.num_key_inputs())),
        k2_(fresh_vars(engine_, locked.num_key_inputs())),
        key_by_position_(locked.num_key_inputs()) {
    // specialize() keeps the surviving (key) inputs in netlist-position
    // order, so an observation cone's key input `rank` is key bit
    // key_by_position_[rank].
    std::iota(key_by_position_.begin(), key_by_position_.end(),
              std::size_t{0});
    std::sort(key_by_position_.begin(), key_by_position_.end(),
              [&locked](std::size_t a, std::size_t b) {
                return locked.key_input_positions[a] <
                       locked.key_input_positions[b];
              });
    const sat::CircuitEncoding enc1 = sat::encode_netlist(
        engine_, locked.netlist, mix_inputs(locked, x_, k1_));
    const sat::CircuitEncoding enc2 = sat::encode_netlist(
        engine_, locked.netlist, mix_inputs(locked, x_, k2_));
    want_dip_ = {sat::pos(sat::add_conditional_miter(
        engine_, enc1.output_vars, enc2.output_vars))};
    AttackMetrics::get().miter_clauses.add(engine_.num_clauses());
  }

  /// A distinguishing input: two keys that agree with every observation so
  /// far still disagree on it. nullopt once none exists, i.e. every key
  /// that satisfies the observations is functionally equivalent.
  std::optional<BitVec> next_dip() {
    if (engine_.solve(want_dip_) != sat::SolveResult::kSat)
      return std::nullopt;
    BitVec dip(x_.size());
    for (std::size_t i = 0; i < x_.size(); ++i)
      dip.set(i, engine_.model_value(x_[i]));
    return dip;
  }

  /// Both key copies must agree with the oracle's observation (x, y):
  /// "locked(x, K) == y" for K = k1 and K = k2.
  ///
  /// The data word is burned into the netlist (circuit::specialize) and the
  /// result constant-propagated (circuit::simplify) once, and that cone is
  /// encoded over each key copy, so each observation costs only its
  /// key-dependent cone instead of a full netlist copy — on the bench
  /// circuits the cone is a small fraction of the circuit, which is what
  /// keeps the incremental encoding compact across hundreds of DIPs.
  void observe(const BitVec& x, const BitVec& y) {
    PITFALLS_REQUIRE(x.size() == x_.size(),
                     "observation input arity mismatch");
    std::vector<std::pair<std::size_t, bool>> pins;
    pins.reserve(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      pins.emplace_back(locked_.data_input_positions[i], x.get(i));
    const circuit::Netlist cone =
        circuit::simplify(circuit::specialize(locked_.netlist, pins));
    constrain(cone, k1_, y);
    constrain(cone, k2_, y);
  }

  /// Any key consistent with every observation, read from the k1 copy.
  BitVec extract_key() {
    PITFALLS_ENSURE(engine_.solve() == sat::SolveResult::kSat,
                    "correct key must satisfy all observations");
    BitVec key(k1_.size());
    for (std::size_t i = 0; i < k1_.size(); ++i)
      key.set(i, engine_.model_value(k1_[i]));
    return key;
  }

  const sat::PortfolioSolver& engine() const { return engine_; }

 private:
  /// Add "cone(K) == y" over one key copy K.
  void constrain(const circuit::Netlist& cone,
                 const std::vector<Var>& key_vars, const BitVec& y) {
    std::vector<Var> shared(key_vars.size());
    for (std::size_t rank = 0; rank < key_by_position_.size(); ++rank)
      shared[rank] = key_vars[key_by_position_[rank]];
    const sat::CircuitEncoding enc =
        sat::encode_netlist(engine_, cone, shared);
    PITFALLS_ENSURE(enc.output_vars.size() == y.size(),
                    "oracle output arity mismatch");
    for (std::size_t i = 0; i < y.size(); ++i)
      sat::fix_var(engine_, enc.output_vars[i], y.get(i));
  }

  const LockedCircuit& locked_;
  sat::PortfolioSolver engine_;
  std::vector<Var> x_;
  std::vector<Var> k1_;
  std::vector<Var> k2_;
  std::vector<std::size_t> key_by_position_;
  std::vector<sat::Lit> want_dip_;
};

}  // namespace pitfalls::attack::detail
