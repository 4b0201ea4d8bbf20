#include "lock/sarlock.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"

namespace pitfalls::lock {

using circuit::Gate;
using circuit::GateType;

namespace {

/// Wrap a plain netlist as a LockedCircuit with zero key bits.
LockedCircuit as_locked(const Netlist& original) {
  LockedCircuit out;
  out.correct_key = BitVec(0);
  std::vector<std::size_t> remap(original.num_gates());
  for (std::size_t id = 0; id < original.num_gates(); ++id) {
    const Gate& g = original.gate(id);
    if (g.type == GateType::kInput) {
      const std::size_t copy = out.netlist.add_input(g.name);
      out.data_input_positions.push_back(out.netlist.input_index(copy));
      remap[id] = copy;
    } else {
      std::vector<std::size_t> fanins;
      for (auto f : g.fanins) fanins.push_back(remap[f]);
      remap[id] = out.netlist.add_gate(g.type, std::move(fanins), g.name);
    }
  }
  for (auto output : original.outputs()) out.netlist.mark_output(remap[output]);
  return out;
}

/// Add a SARLock comparator layer over the first `sar_bits` data inputs of
/// `base`, flipping output 0 when (data == K) and (K != secret).
LockedCircuit add_sarlock_layer(const LockedCircuit& base,
                                std::size_t sar_bits, support::Rng& rng) {
  PITFALLS_REQUIRE(sar_bits >= 1, "need at least one SARLock key bit");
  PITFALLS_REQUIRE(sar_bits <= base.num_data_inputs(),
                   "SARLock width exceeds the data inputs");
  PITFALLS_REQUIRE(base.netlist.num_outputs() >= 1,
                   "need an output to protect");

  const obs::TraceSpan lock_span("lock.sarlock.layer");
  LockedCircuit out;
  // Copy the base netlist verbatim (ids are preserved: same insertion
  // order), then append the comparator block.
  std::vector<std::size_t> remap(base.netlist.num_gates());
  for (std::size_t id = 0; id < base.netlist.num_gates(); ++id) {
    const Gate& g = base.netlist.gate(id);
    if (g.type == GateType::kInput) {
      remap[id] = out.netlist.add_input(g.name);
    } else {
      std::vector<std::size_t> fanins;
      for (auto f : g.fanins) fanins.push_back(remap[f]);
      remap[id] = out.netlist.add_gate(g.type, std::move(fanins), g.name);
    }
  }
  // Input positions are unchanged by the verbatim copy.
  out.data_input_positions = base.data_input_positions;
  out.key_input_positions = base.key_input_positions;

  // Fresh SARLock key inputs + secret.
  BitVec secret(sar_bits);
  rng.fill_coins(secret);
  std::vector<std::size_t> sar_keys(sar_bits);
  for (std::size_t i = 0; i < sar_bits; ++i) {
    const std::size_t key_input =
        out.netlist.add_input("sarkey" + std::to_string(i));
    sar_keys[i] = key_input;
    out.key_input_positions.push_back(out.netlist.input_index(key_input));
  }

  // data == K over the guarded bits.
  const auto& inputs = out.netlist.inputs();
  std::size_t eq_acc = SIZE_MAX;
  for (std::size_t i = 0; i < sar_bits; ++i) {
    const std::size_t data_gate = inputs[base.data_input_positions[i]];
    const std::size_t bit_eq =
        out.netlist.add_gate(GateType::kXnor, {data_gate, sar_keys[i]});
    eq_acc = (eq_acc == SIZE_MAX)
                 ? bit_eq
                 : out.netlist.add_gate(GateType::kAnd, {eq_acc, bit_eq});
  }

  // K != secret: OR of per-bit mismatches; mismatch_i is K_i or NOT K_i
  // depending on the secret bit.
  std::size_t neq_acc = SIZE_MAX;
  for (std::size_t i = 0; i < sar_bits; ++i) {
    const std::size_t mism =
        secret.get(i)
            ? out.netlist.add_gate(GateType::kNot, {sar_keys[i]})
            : out.netlist.add_gate(GateType::kBuf, {sar_keys[i]});
    neq_acc = (neq_acc == SIZE_MAX)
                  ? mism
                  : out.netlist.add_gate(GateType::kOr, {neq_acc, mism});
  }

  const std::size_t flip =
      out.netlist.add_gate(GateType::kAnd, {eq_acc, neq_acc});

  // Outputs: flip the first, keep the rest.
  const auto& base_outputs = base.netlist.outputs();
  const std::size_t protected_out =
      out.netlist.add_gate(GateType::kXor, {remap[base_outputs[0]], flip});
  out.netlist.mark_output(protected_out);
  for (std::size_t o = 1; o < base_outputs.size(); ++o)
    out.netlist.mark_output(remap[base_outputs[o]]);

  // Correct key = base key ++ secret.
  out.correct_key = BitVec(base.correct_key.size() + sar_bits);
  for (std::size_t i = 0; i < base.correct_key.size(); ++i)
    out.correct_key.set(i, base.correct_key.get(i));
  for (std::size_t i = 0; i < sar_bits; ++i)
    out.correct_key.set(base.correct_key.size() + i, secret.get(i));
  obs::MetricsRegistry::global()
      .counter("lock.sarlock.comparator_gates")
      .add(out.netlist.num_gates() - base.netlist.num_gates() - sar_bits);
  return out;
}

}  // namespace

LockedCircuit lock_sarlock(const Netlist& original, std::size_t key_bits,
                           support::Rng& rng) {
  return add_sarlock_layer(as_locked(original), key_bits, rng);
}

LockedCircuit lock_sarlock_plus_xor(const Netlist& original,
                                    std::size_t sar_key_bits,
                                    std::size_t xor_key_bits,
                                    support::Rng& rng) {
  PITFALLS_REQUIRE(xor_key_bits >= 1, "need at least one XOR key bit");
  const LockedCircuit base = lock_random_xor(original, xor_key_bits, rng);
  return add_sarlock_layer(base, sar_key_bits, rng);
}

}  // namespace pitfalls::lock
