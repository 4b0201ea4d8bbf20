// The observability name registry: every metric/span name literal used
// under src/ and bench/, exactly once. pitfalls-lint's metric-registry rule
// checks callsites against this list, so bench JSON, baselines and
// check_bench_json can never drift silently from the code.
//
// GENERATED FILE — regenerate after adding or renaming a name:
//   pitfalls-lint --write-names=src/obs/names.hpp src bench
#pragma once

#include <cstddef>

namespace pitfalls::obs::names {

// clang-format off
inline constexpr const char* kRegistered[] = {
    "attack.appsat",  // span
    "attack.appsat.dip_phase",  // span
    "attack.appsat.round",  // span
    "attack.appsat.settle_phase",  // span
    "attack.bmc.frames",  // counter
    "attack.bmc_reach",  // span
    "attack.bmc_reach.frame",  // span
    "attack.dips",  // counter
    "attack.key_bits_fixed",  // counter
    "attack.miter_clauses",  // counter
    "attack.sat_attack",  // span
    "attack.sat_attack.dip",  // span
    "attack.sat_attack.encode_miter",  // span
    "attack.sat_attack.extract_key",  // span
    "attack.sat_attack.seconds",  // histogram
    "circuit.analyze",  // span
    "circuit.analyze.calls",  // counter
    "circuit.netlist.depth",  // histogram
    "circuit.netlist.logic_gates",  // histogram
    "circuit.simplify",  // span
    "circuit.simplify.calls",  // counter
    "circuit.simplify.gates_removed",  // counter
    "lock.antisat",  // span
    "lock.antisat.block_gates",  // counter
    "lock.fsm.obf_states",  // counter
    "lock.obfuscate_fsm",  // span
    "lock.random_xor",  // span
    "lock.sarlock.comparator_gates",  // counter
    "lock.sarlock.layer",  // span
    "lock.xor.key_gates",  // counter
    "ml.anf.interpolations",  // counter
    "ml.anf.membership_queries",  // counter
    "ml.chow.crps_used",  // counter
    "ml.chow.estimates",  // counter
    "ml.lmn.coefficients_estimated",  // counter
    "ml.lmn.fits",  // counter
    "ml.lmn.learn_seconds",  // timer
    "ml.lmn.samples",  // counter
    "ml.lmn.terms_kept",  // counter
    "ml.logistic.final_loss",  // gauge
    "ml.logistic.fit_seconds",  // timer
    "ml.logistic.fits",  // counter
    "ml.logistic.iterations",  // counter
    "ml.lstar.learn_seconds",  // timer
    "ml.lstar.rounds",  // counter
    "ml.lstar.runs",  // counter
    "ml.lstar.states",  // gauge
    "ml.perceptron.epochs",  // counter
    "ml.perceptron.fit_seconds",  // timer
    "ml.perceptron.fits",  // counter
    "ml.perceptron.mistakes",  // counter
    "ml.sparsepoly.equivalence_queries",  // counter
    "ml.sparsepoly.membership_queries",  // counter
    "ml.sparsepoly.runs",  // counter
    "ml.sparsepoly.terms",  // counter
    "ml.xor.fit_seconds",  // timer
    "oracle.batch.calls",  // counter
    "oracle.batch.elements",  // counter
    "oracle.batch.size",  // histogram
    "oracle.dfa_equivalence_queries",  // counter
    "oracle.dfa_membership_queries",  // counter
    "oracle.equivalence_calls",  // counter
    "oracle.equivalence_samples",  // counter
    "oracle.membership_queries",  // counter
    "puf.crp.accuracy",  // batch
    "puf.crp.collect",  // batch
    "puf.crp.collect_stable_seconds",  // timer
    "puf.crp.noisy_collected",  // counter
    "puf.crp.stable_collected",  // counter
    "puf.crp.uniform_collected",  // counter
    "puf.crp.unstable_rejected",  // counter
    "puf.metrics",  // batch
    "robust.budget.refusals",  // counter
    "robust.faults.burst_flips",  // counter
    "robust.faults.drops",  // counter
    "robust.faults.iid_flips",  // counter
    "robust.faults.metastable_flips",  // counter
    "robust.holdout",  // batch
    "robust.learn.degraded_completions",  // counter
    "robust.learn.heldout_accuracy",  // histogram
    "robust.learn.queries_spent",  // counter
    "robust.retry.attempts",  // counter
    "robust.retry.backoff_steps",  // counter
    "robust.retry.failures",  // counter
    "robust.vote.votes",  // counter
    "robust.vote.votes_per_query",  // histogram
    "sat.solver.arena_collections",  // counter
    "sat.solver.blocked_restarts",  // counter
    "sat.solver.conflicts",  // counter
    "sat.solver.db_reductions",  // counter
    "sat.solver.decisions",  // counter
    "sat.solver.deleted_clauses",  // counter
    "sat.solver.lbd",  // histogram
    "sat.solver.learned_clauses",  // counter
    "sat.solver.learned_literals",  // counter
    "sat.solver.max_decision_level",  // gauge
    "sat.solver.minimized_literals",  // counter
    "sat.solver.portfolio_rounds",  // counter
    "sat.solver.portfolio_solves",  // counter
    "sat.solver.portfolio_winner",  // gauge
    "sat.solver.propagations",  // counter
    "sat.solver.reduce_db",  // instant
    "sat.solver.restarts",  // counter
    "serve.fleet.evictions",  // counter
    "serve.fleet.hits",  // counter
    "serve.fleet.materializations",  // counter
    "serve.job.auth",  // span
    "serve.job.collect",  // span
    "serve.job.eval",  // span
    "serve.job.fit",  // span
    "serve.job.query",  // span
    "serve.job.run",  // span
    "serve.jobs.completed",  // counter
    "serve.jobs.failed",  // counter
    "serve.jobs.submitted",  // counter
    "serve.session.resumed",  // counter
    "serve.wire.errors",  // counter
    "serve.wire.requests",  // counter
    "store.snapshot.bytes_written",  // counter
    "store.snapshot.corrupt",  // counter
    "store.snapshot.divergence",  // counter
    "store.snapshot.loads",  // counter
    "store.snapshot.mismatch",  // counter
    "store.snapshot.replayed_queries",  // counter
    "store.snapshot.resumed",  // counter
    "store.snapshot.writes",  // counter
    "support.pool.tasks",  // counter
    "support.pool.threads",  // gauge
};
// clang-format on

inline constexpr std::size_t kRegisteredCount =
    sizeof(kRegistered) / sizeof(kRegistered[0]);

}  // namespace pitfalls::obs::names
