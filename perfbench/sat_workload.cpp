// sat_keyrec: one op is one oracle-guided SAT attack (attack::sat_attack)
// that recovers the key of an XOR-locked circuit, with a 2-worker solver
// portfolio on the 2-thread pool. Circuit generation and locking are set-up;
// the equivalence check of each recovered key runs outside the op timing.
#include <algorithm>
#include <string>
#include <vector>

#include "attack/sat_attack.hpp"
#include "bench.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace perfbench {
namespace {

using pitfalls::support::Rng;
namespace attack = pitfalls::attack;
namespace circuit = pitfalls::circuit;
namespace lock = pitfalls::lock;

/// One instance template: the seed draws the DAG, the key positions and
/// the key value; the size class stays fixed, so every seed does
/// comparable work.
struct Template {
  std::size_t adder_width;  // 0: random DAG
  std::size_t inputs;
  std::size_t gates;
  std::size_t outputs;
  std::size_t key_bits;
};

constexpr Template kTemplates[] = {
    {16, 0, 0, 0, 24},   {24, 0, 0, 0, 32},   {32, 0, 0, 0, 48},
    {32, 0, 0, 0, 64},   {0, 16, 160, 6, 24}, {0, 20, 200, 8, 24},
    {0, 20, 200, 8, 32}, {0, 24, 240, 10, 32},
};
constexpr std::size_t kInstancesPerTemplate = 16;

struct Instance {
  circuit::Netlist original;
  lock::LockedCircuit locked;
};

struct Tallies {
  std::uint64_t keys = 0;
  std::uint64_t dips = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t propagations = 0;
  std::uint64_t decisions = 0;
  std::uint64_t pool_tasks = 0;
  double busy_s = 0.0;
};

class SatWorkload final : public Workload {
 public:
  explicit SatWorkload(std::uint64_t seed) : seed_(seed) {
    config_.portfolio_workers = 2;
  }

  RepStats run_rep(Recorder& recorder) override {
    RepStats stats;
    const double start = now_s();
    const std::vector<Instance> instances = build(recorder);
    {
      // Untimed warm-up op, part of set-up: the first instance once more.
      attack::CircuitOracle oracle =
          attack::CircuitOracle::from_netlist(instances.front().original);
      const std::ptrdiff_t span = recorder.open("attack.warmup", 0);
      attack::sat_attack(instances.front().locked, oracle, config_);
      recorder.close(span);
    }
    stats.setup_s = now_s() - start;

    auto& pool_tasks =
        pitfalls::obs::MetricsRegistry::global().counter("support.pool.tasks");
    std::uint64_t op = 0;
    for (const Instance& instance : instances) {
      attack::CircuitOracle oracle =
          attack::CircuitOracle::from_netlist(instance.original);
      const std::uint64_t tasks_before = pool_tasks.value();
      recorder.reset_obs();
      const double cpu_before = cpu_s();
      const double t0 = now_s();
      const attack::SatAttackResult result =
          attack::sat_attack(instance.locked, oracle, config_);
      const double t1 = now_s();
      stats.cpu_s += cpu_s() - cpu_before;
      stats.timed_s += t1 - t0;
      stats.latency_s.push_back(t1 - t0);
      ++stats.ops;
      if (recorder.enabled()) {
        recorder.import_obs(recorder.add("op.key", t0, t1, op), op);
        tallies_.keys += 1;
        tallies_.dips += result.dip_iterations;
        tallies_.conflicts += result.solver_stats.conflicts;
        tallies_.propagations += result.solver_stats.propagations;
        tallies_.decisions += result.solver_stats.decisions;
        tallies_.pool_tasks += pool_tasks.value() - tasks_before;
        tallies_.busy_s += t1 - t0;
      }

      const std::ptrdiff_t verify = recorder.open("attack.verify", op);
      const bool exact =
          result.success && attack::keys_equivalent(instance.original,
                                                    instance.locked,
                                                    result.key);
      recorder.close(verify);
      if (!exact) ++stats.failed;
      const std::string record = result.key.to_string() + "/" +
                                 std::to_string(result.dip_iterations) + ";";
      stats.digest = pitfalls::support::snapshot::crc32(record, stats.digest);
      ++op;
    }
    return stats;
  }

  std::map<std::string, double> layer_metrics(
      const Recorder& recorder) const override {
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const auto times = recorder.self_times();
    const auto mean_ms = [&](const char* name) {
      const auto it = times.find(name);
      if (it == times.end()) return 0.0;
      return per(it->second.total_s * 1e3,
                 static_cast<double>(it->second.count));
    };
    const double keys = static_cast<double>(tallies_.keys);
    std::map<std::string, double> out;
    out["sat.conflicts_per_key"] =
        per(static_cast<double>(tallies_.conflicts), keys);
    out["sat.propagations_per_key"] =
        per(static_cast<double>(tallies_.propagations), keys);
    out["sat.decisions_per_key"] =
        per(static_cast<double>(tallies_.decisions), keys);
    out["sat.propagations_per_s"] =
        per(static_cast<double>(tallies_.propagations), tallies_.busy_s);
    out["attack.dips_per_key"] = per(static_cast<double>(tallies_.dips), keys);
    out["attack.ms_per_dip"] =
        per(tallies_.busy_s * 1e3, static_cast<double>(tallies_.dips));
    out["attack.verify_ms"] = mean_ms("attack.verify");
    out["lock.lock_ms"] = mean_ms("lock.lock");
    out["circuit.gen_ms"] = mean_ms("circuit.gen");
    out["support.pool.tasks_per_op"] =
        per(static_cast<double>(tallies_.pool_tasks), keys);
    return out;
  }

  std::string describe() const override {
    return "sat_keyrec: " +
           std::to_string(std::size(kTemplates) * kInstancesPerTemplate) +
           " XOR-locked circuits (ripple adders of 16-32 bits, random DAGs "
           "of 160-240 gates; 24-64 key bits), one sat_attack each, "
           "2 portfolio workers";
  }

 private:
  std::vector<Instance> build(Recorder& recorder) const {
    // The base circuits are a fixed suite, like the ISCAS netlists of SAT
    // attack studies; the seed draws the locking (key positions, key
    // value), so seeds differ in their inputs, not in their size class.
    Rng structure(0x636972637569742dULL);
    Rng rng(seed_ ^ 0x7361742d6b657973ULL);
    std::vector<Instance> instances;
    instances.reserve(std::size(kTemplates) * kInstancesPerTemplate);
    for (std::size_t round = 0; round < kInstancesPerTemplate; ++round) {
      for (const Template& shape : kTemplates) {
        Instance instance;
        std::ptrdiff_t span = recorder.open("circuit.gen", 0);
        if (shape.adder_width > 0) {
          instance.original = circuit::ripple_carry_adder(shape.adder_width);
        } else {
          circuit::RandomCircuitConfig config;
          config.inputs = shape.inputs;
          config.gates = shape.gates;
          config.outputs = shape.outputs;
          instance.original = circuit::random_circuit(config, structure);
        }
        recorder.close(span);
        const std::size_t key_bits = std::min(
            shape.key_bits, lock::lockable_gate_count(instance.original));
        span = recorder.open("lock.lock", 0);
        instance.locked =
            lock::lock_random_xor(instance.original, key_bits, rng);
        recorder.close(span);
        instances.push_back(std::move(instance));
      }
    }
    return instances;
  }

  std::uint64_t seed_;
  attack::SatAttackConfig config_;
  Tallies tallies_;
};

}  // namespace

std::unique_ptr<Workload> make_sat_keyrec(std::uint64_t seed) {
  return std::make_unique<SatWorkload>(seed);
}

}  // namespace perfbench
