#include "sat/solver.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/require.hpp"
#include "support/rng.hpp"

namespace pitfalls::sat {

namespace {

// LBD window driving the restart block: Luby restarts are postponed while
// the average LBD of the last kLbdWindow learned clauses is clearly below
// the historical average (the solver is in a productive learning streak).
constexpr std::size_t kLbdWindow = 50;

// Per-solve cap on LBD samples mirrored into the global histogram; keeps
// long searches from growing the (raw-sample) histogram unboundedly while
// staying a deterministic first-N policy.
constexpr std::size_t kMaxLbdSamples = 4096;

/// Luby sequence value at 0-based index x: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
std::uint64_t luby_value(std::uint64_t x) {
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x = x % size;
  }
  return std::uint64_t{1} << seq;
}

// Global mirrors of the per-solver stats, resolved once (the registry hands
// out stable references). Counters accumulate deltas per solve() call;
// max_decision_level is a high-water gauge across every solver in the
// process. All values derive from the deterministic search, so they honor
// the byte-identical-across-thread-counts contract (the lbd histogram is
// outside the deterministic counters_json slice, but its sorted summary is
// thread-count invariant too).
struct GlobalSolverMetrics {
  obs::Counter& decisions;
  obs::Counter& propagations;
  obs::Counter& conflicts;
  obs::Counter& learned_clauses;
  obs::Counter& learned_literals;
  obs::Counter& minimized_literals;
  obs::Counter& restarts;
  obs::Counter& blocked_restarts;
  obs::Counter& db_reductions;
  obs::Counter& deleted_clauses;
  obs::Counter& arena_collections;
  obs::Gauge& max_decision_level;
  obs::Histogram& lbd;

  static GlobalSolverMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static GlobalSolverMetrics metrics{
        registry.counter("sat.solver.decisions"),
        registry.counter("sat.solver.propagations"),
        registry.counter("sat.solver.conflicts"),
        registry.counter("sat.solver.learned_clauses"),
        registry.counter("sat.solver.learned_literals"),
        registry.counter("sat.solver.minimized_literals"),
        registry.counter("sat.solver.restarts"),
        registry.counter("sat.solver.blocked_restarts"),
        registry.counter("sat.solver.db_reductions"),
        registry.counter("sat.solver.deleted_clauses"),
        registry.counter("sat.solver.arena_collections"),
        registry.gauge("sat.solver.max_decision_level"),
        registry.histogram("sat.solver.lbd")};
    return metrics;
  }

  void flush(const SolverStats& before, const SolverStats& after,
             const std::vector<std::uint32_t>& lbd_samples) {
    decisions.add(after.decisions - before.decisions);
    propagations.add(after.propagations - before.propagations);
    conflicts.add(after.conflicts - before.conflicts);
    learned_clauses.add(after.learned_clauses - before.learned_clauses);
    learned_literals.add(after.learned_literals - before.learned_literals);
    minimized_literals.add(after.minimized_literals -
                           before.minimized_literals);
    restarts.add(after.restarts - before.restarts);
    blocked_restarts.add(after.blocked_restarts - before.blocked_restarts);
    db_reductions.add(after.db_reductions - before.db_reductions);
    deleted_clauses.add(after.deleted_clauses - before.deleted_clauses);
    arena_collections.add(after.arena_collections -
                          before.arena_collections);
    if (static_cast<double>(after.max_decision_level) >
        max_decision_level.value())
      max_decision_level.set(static_cast<double>(after.max_decision_level));
    for (const std::uint32_t sample : lbd_samples)
      lbd.observe(static_cast<double>(sample));
  }
};

/// Mirrors one solve() call's stat deltas on every exit path.
struct StatsFlusher {
  const SolverStats& stats;
  std::vector<std::uint32_t>& lbd_samples;
  SolverStats before;
  StatsFlusher(const SolverStats& s, std::vector<std::uint32_t>& lbds)
      : stats(s), lbd_samples(lbds), before(s) {}
  ~StatsFlusher() {
    GlobalSolverMetrics::get().flush(before, stats, lbd_samples);
    lbd_samples.clear();
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// VarHeap
// ---------------------------------------------------------------------------

void Solver::VarHeap::insert(Var v, const std::vector<double>& act) {
  if (contains(v)) return;
  const std::size_t i = heap_.size();
  heap_.push_back(v);
  pos_[v] = static_cast<std::int32_t>(i);
  up(i, act);
}

Var Solver::VarHeap::pop(const std::vector<double>& act) {
  const Var top = heap_[0];
  const Var last = heap_.back();
  heap_.pop_back();
  pos_[top] = -1;
  if (!heap_.empty()) {
    heap_[0] = last;
    pos_[last] = 0;
    down(0, act);
  }
  return top;
}

void Solver::VarHeap::increased(Var v, const std::vector<double>& act) {
  if (contains(v)) up(static_cast<std::size_t>(pos_[v]), act);
}

void Solver::VarHeap::up(std::size_t i, const std::vector<double>& act) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(v, heap_[parent], act)) break;
    heap_[i] = heap_[parent];
    pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::VarHeap::down(std::size_t i, const std::vector<double>& act) {
  const Var v = heap_[i];
  for (;;) {
    const std::size_t left = 2 * i + 1;
    if (left >= heap_.size()) break;
    const std::size_t child =
        (left + 1 < heap_.size() && before(heap_[left + 1], heap_[left], act))
            ? left + 1
            : left;
    if (!before(heap_[child], v, act)) break;
    heap_[i] = heap_[child];
    pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  pos_[v] = static_cast<std::int32_t>(i);
}

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

Solver::Solver(const SolverConfig& config)
    : config_(config),
      random_state_(config.seed != 0 ? config.seed : 0x9e3779b97f4a7c15ULL) {}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(kUndef);
  saved_phase_.push_back(config_.initial_phase ? 1 : 0);
  level_.push_back(0);
  reason_.push_back(kNoClause);
  activity_.push_back(0.0);
  watches_.emplace_back();
  watches_.emplace_back();
  binary_watches_.emplace_back();
  binary_watches_.emplace_back();
  seen_.push_back(0);
  level_stamp_.push_back(0);
  return v;
}

std::uint8_t Solver::value_of(Lit literal) const {
  const std::uint8_t a = assigns_[literal.var()];
  if (a == kUndef) return kUndef;
  return literal.negated() ? static_cast<std::uint8_t>(1 - a) : a;
}

std::uint64_t Solver::next_random() {
  return support::splitmix64_next(random_state_);
}

bool Solver::add_clause(std::vector<Lit> literals) {
  PITFALLS_REQUIRE(trail_lim_.empty(), "clauses may only be added at level 0");
  if (unsat_at_root_) return false;

  // Simplify: sort, dedupe, drop root-false literals, detect tautologies and
  // root-true literals.
  std::sort(literals.begin(), literals.end(),
            [](Lit a, Lit b) { return a.index() < b.index(); });
  std::vector<Lit> cleaned;
  for (std::size_t i = 0; i < literals.size(); ++i) {
    const Lit l = literals[i];
    PITFALLS_REQUIRE(l.var() < num_vars(), "literal over unknown variable");
    if (i + 1 < literals.size() && literals[i + 1] == l) continue;  // dup
    if (i + 1 < literals.size() && literals[i + 1] == ~l) return true;  // taut
    const std::uint8_t v = value_of(l);
    if (v == 1) return true;   // already satisfied at root
    if (v == 0) continue;      // falsified at root: drop
    cleaned.push_back(l);
  }

  if (cleaned.empty()) {
    unsat_at_root_ = true;
    return false;
  }
  if (cleaned.size() == 1) {
    if (!enqueue(cleaned[0], kNoClause)) {
      unsat_at_root_ = true;
      return false;
    }
    if (propagate() != kNoClause) {
      unsat_at_root_ = true;
      return false;
    }
    return true;
  }

  const ClauseRef ref = attach_clause(cleaned, false, 0);
  problem_refs_.push_back(ref);
  return true;
}

ClauseRef Solver::attach_clause(const std::vector<Lit>& literals, bool learned,
                                std::uint32_t lbd) {
  const ClauseRef ref =
      arena_.alloc(literals.data(),
                   static_cast<std::uint32_t>(literals.size()), learned);
  if (learned) arena_.set_lbd(ref, lbd);
  attach_watches(ref);
  return ref;
}

void Solver::attach_watches(ClauseRef ref) {
  const Lit l0 = arena_.lit(ref, 0);
  const Lit l1 = arena_.lit(ref, 1);
  if (arena_.size(ref) == 2) {
    binary_watches_[l0.index()].push_back({l1, ref});
    binary_watches_[l1.index()].push_back({l0, ref});
  } else {
    watches_[l0.index()].push_back({ref, l1});
    watches_[l1.index()].push_back({ref, l0});
  }
}

bool Solver::enqueue(Lit literal, ClauseRef reason) {
  const std::uint8_t v = value_of(literal);
  if (v == 0) return false;  // conflicting assignment
  if (v == 1) return true;   // already set
  assigns_[literal.var()] = literal.negated() ? 0 : 1;
  level_[literal.var()] = static_cast<std::uint32_t>(trail_lim_.size());
  reason_[literal.var()] = reason;
  trail_.push_back(literal);
  return true;
}

ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    const Lit falsified = ~p;

    // Binary clauses first: the other literal is inline in the watcher, so
    // this pass never touches the arena.
    {
      auto& watch_list = binary_watches_[falsified.index()];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < watch_list.size(); ++i) {
        const BinaryWatcher w = watch_list[i];
        watch_list[keep++] = w;
        const std::uint8_t v = value_of(w.other);
        if (v == 1) continue;
        if (v == 0) {
          for (std::size_t j = i + 1; j < watch_list.size(); ++j)
            watch_list[keep++] = watch_list[j];
          watch_list.resize(keep);
          propagate_head_ = trail_.size();
          return w.clause_ref;
        }
        const bool ok = enqueue(w.other, w.clause_ref);
        PITFALLS_ENSURE(ok, "binary unit enqueue failed unexpectedly");
      }
      watch_list.resize(keep);
    }

    auto& watch_list = watches_[falsified.index()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher w = watch_list[i];
      if (value_of(w.blocker) == 1) {
        watch_list[keep++] = w;  // clause satisfied; arena untouched
        continue;
      }
      const ClauseRef c = w.clause_ref;
      // Normalise: the falsified literal sits at position 1.
      if (arena_.lit(c, 0) == falsified) arena_.swap_lits(c, 0, 1);
      const Lit first = arena_.lit(c, 0);
      if (value_of(first) == 1) {
        watch_list[keep++] = {c, first};
        continue;
      }
      // Look for a replacement watch.
      const std::uint32_t size = arena_.size(c);
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit cand = arena_.lit(c, k);
        if (value_of(cand) != 0) {
          arena_.swap_lits(c, 1, k);
          watches_[cand.index()].push_back({c, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting.
      watch_list[keep++] = {c, first};
      if (value_of(first) == 0) {
        // Conflict: restore the remaining watchers and report.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j)
          watch_list[keep++] = watch_list[j];
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return c;
      }
      const bool ok = enqueue(first, c);
      PITFALLS_ENSURE(ok, "unit enqueue failed unexpectedly");
    }
    watch_list.resize(keep);
  }
  return kNoClause;
}

void Solver::bump_var(Var v) {
  activity_[v] += activity_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    activity_inc_ *= 1e-100;
  }
  order_.increased(v, activity_);
}

void Solver::decay_activities() { activity_inc_ /= config_.var_decay; }

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& literals) {
  // Indexed by decision level; dummy assumption levels can push the level
  // count past num_vars, so grow on demand (fresh slots read as epoch 0).
  if (level_stamp_.size() <= trail_lim_.size())
    level_stamp_.resize(trail_lim_.size() + 1, 0);
  ++stamp_epoch_;
  std::uint32_t distinct = 0;
  for (const Lit l : literals) {
    const std::uint32_t lev = level_of(l.var());
    if (level_stamp_[lev] != stamp_epoch_) {
      level_stamp_[lev] = stamp_epoch_;
      ++distinct;
    }
  }
  return distinct;
}

void Solver::record_lbd(std::uint32_t lbd) {
  total_lbd_sum_ += static_cast<double>(lbd);
  ++total_lbd_count_;
  if (recent_lbds_.size() < kLbdWindow) {
    recent_lbds_.push_back(lbd);
    recent_lbd_sum_ += static_cast<double>(lbd);
    recent_lbd_full_ = recent_lbds_.size() == kLbdWindow;
  } else {
    recent_lbd_sum_ += static_cast<double>(lbd) -
                       static_cast<double>(recent_lbds_[recent_lbd_next_]);
    recent_lbds_[recent_lbd_next_] = lbd;
    recent_lbd_next_ = (recent_lbd_next_ + 1) % kLbdWindow;
  }
  if (lbd_samples_.size() < kMaxLbdSamples) lbd_samples_.push_back(lbd);
}

bool Solver::restart_blocked() const {
  if (config_.restart_block_margin <= 0.0 || !recent_lbd_full_ ||
      total_lbd_count_ == 0)
    return false;
  const double recent_avg =
      recent_lbd_sum_ / static_cast<double>(recent_lbds_.size());
  const double global_avg =
      total_lbd_sum_ / static_cast<double>(total_lbd_count_);
  return recent_avg < config_.restart_block_margin * global_avg;
}

bool Solver::literal_redundant(Lit l) {
  const ClauseRef r = reason_[l.var()];
  if (r == kNoClause) return false;  // decision or root unit
  const std::uint32_t size = arena_.size(r);
  for (std::uint32_t i = 0; i < size; ++i) {
    const Lit q = arena_.lit(r, i);
    if (q.var() == l.var()) continue;
    if (seen_[q.var()] == 0 && level_of(q.var()) != 0) return false;
  }
  return true;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learned,
                     std::uint32_t& backtrack_level, std::uint32_t& lbd) {
  learned.clear();
  learned.push_back(Lit());  // slot for the asserting literal
  const std::uint32_t current_level =
      static_cast<std::uint32_t>(trail_lim_.size());
  std::size_t counter = 0;
  std::size_t trail_index = trail_.size();
  Lit uip;
  ClauseRef reason_clause = conflict;
  bool first = true;
  Var expanded_var = 0;  // var whose reason is being expanded (skip it)

  for (;;) {
    PITFALLS_ENSURE(reason_clause != kNoClause, "reason chain broken");
    const std::uint32_t size = arena_.size(reason_clause);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = arena_.lit(reason_clause, i);
      // Binary reasons do not keep the implied literal at a fixed slot, so
      // skip by variable instead of by position.
      if (!first && q.var() == expanded_var) continue;
      if (seen_[q.var()] != 0 || level_of(q.var()) == 0) continue;
      seen_[q.var()] = 1;
      bump_var(q.var());
      if (level_of(q.var()) == current_level) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    first = false;

    // Walk the trail back to the next marked literal.
    do {
      --trail_index;
    } while (seen_[trail_[trail_index].var()] == 0);
    uip = trail_[trail_index];
    seen_[uip.var()] = 0;
    --counter;
    if (counter == 0) break;
    reason_clause = reason_[uip.var()];
    expanded_var = uip.var();
  }
  learned[0] = ~uip;

  // Self-subsumption minimisation: drop literals whose reason clause is
  // covered by the rest of the learned clause. Flags stay set for the
  // whole pass and are cleared from the pre-filter buffer afterwards.
  analyze_buffer_.assign(learned.begin() + 1, learned.end());
  learned.resize(1);
  for (const Lit l : analyze_buffer_) {
    if (literal_redundant(l)) {
      ++stats_.minimized_literals;
    } else {
      learned.push_back(l);
    }
  }
  for (const Lit l : analyze_buffer_) seen_[l.var()] = 0;

  // Backtrack level = highest level among the other literals; that literal
  // moves to slot 1 so it becomes the second watch.
  backtrack_level = 0;
  std::size_t max_pos = 1;
  for (std::size_t i = 1; i < learned.size(); ++i) {
    if (level_of(learned[i].var()) > backtrack_level) {
      backtrack_level = level_of(learned[i].var());
      max_pos = i;
    }
  }
  if (learned.size() > 1) std::swap(learned[1], learned[max_pos]);
  lbd = compute_lbd(learned);
}

void Solver::backtrack(std::uint32_t level) {
  if (trail_lim_.size() <= level) return;
  const std::uint32_t bound = trail_lim_[level];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    saved_phase_[v] = assigns_[v];
    assigns_[v] = kUndef;
    reason_[v] = kNoClause;
    if (!order_.contains(v)) order_.insert(v, activity_);
  }
  trail_.resize(bound);
  trail_lim_.resize(level);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch() {
  if (config_.random_decision_freq > 0.0) {
    const double draw =
        static_cast<double>(next_random() >> 11) / 9007199254740992.0;
    if (draw < config_.random_decision_freq) {
      const Var v =
          static_cast<Var>(next_random() % static_cast<std::uint64_t>(
                                               num_vars()));
      if (assigns_[v] == kUndef) return Lit(v, saved_phase_[v] == 0);
    }
  }
  for (;;) {
    PITFALLS_ENSURE(!order_.empty(), "decision requested with no free var");
    const Var v = order_.pop(activity_);
    if (assigns_[v] == kUndef) return Lit(v, saved_phase_[v] == 0);
  }
}

bool Solver::clause_is_reason(ClauseRef ref) const {
  const Lit implied = arena_.lit(ref, 0);
  const Var v = implied.var();
  return assigns_[v] != kUndef && reason_[v] == ref;
}

void Solver::reduce_db() {
  ++stats_.db_reductions;
  obs::Tracer::global().instant("sat.solver.reduce_db");

  // Candidates: long learned clauses that are neither glue (LBD <= 2) nor
  // currently the reason of a trail literal. Binaries never reach the
  // arena-deletion path at all.
  std::vector<ClauseRef> candidates;
  candidates.reserve(learned_refs_.size());
  for (const ClauseRef ref : learned_refs_) {
    if (arena_.deleted(ref)) continue;
    if (arena_.size(ref) <= 2) continue;
    if (arena_.lbd(ref) <= 2) continue;
    if (clause_is_reason(ref)) continue;
    candidates.push_back(ref);
  }
  // Worst first: highest LBD, then longest, then youngest (highest ref).
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              if (arena_.lbd(a) != arena_.lbd(b))
                return arena_.lbd(a) > arena_.lbd(b);
              if (arena_.size(a) != arena_.size(b))
                return arena_.size(a) > arena_.size(b);
              return a > b;
            });
  const std::size_t victims = candidates.size() / 2;
  for (std::size_t i = 0; i < victims; ++i) {
    arena_.mark_deleted(candidates[i]);
    ++stats_.deleted_clauses;
  }
  std::erase_if(learned_refs_,
                [this](ClauseRef ref) { return arena_.deleted(ref); });
  // Drop the victims' watchers now, keeping the order of the rest, so
  // propagate never meets a deleted clause. Victims are never binary.
  for (auto& list : watches_)
    std::erase_if(list, [this](const Watcher& w) {
      return arena_.deleted(w.clause_ref);
    });

  // Always-on safety net: a reason clause must never be deleted — a deleted
  // reason would break every later conflict analysis through it.
  for (const Lit l : trail_) {
    const ClauseRef r = reason_[l.var()];
    if (r != kNoClause)
      PITFALLS_ENSURE(!arena_.deleted(r), "reduce-DB deleted a reason clause");
  }
}

void Solver::collect_garbage() {
  PITFALLS_ENSURE(trail_lim_.empty(), "arena GC requires decision level 0");
  ++stats_.arena_collections;

  // Root-implied literals never participate in conflict analysis again;
  // clearing their reasons frees those clauses for collection.
  for (const Lit l : trail_) reason_[l.var()] = kNoClause;

  ClauseArena fresh;
  fresh.reserve(arena_.used_words() - arena_.wasted_words());
  auto sweep = [this, &fresh](std::vector<ClauseRef>& refs) {
    std::size_t kept = 0;
    for (const ClauseRef ref : refs) {
      if (arena_.deleted(ref)) continue;
      const std::uint32_t size = arena_.size(ref);
      bool satisfied = false;
      std::uint32_t live = 0;
      for (std::uint32_t i = 0; i < size && !satisfied; ++i) {
        const std::uint8_t v = value_of(arena_.lit(ref, i));
        if (v == 1) satisfied = true;
        if (v != 0) ++live;
      }
      if (satisfied) continue;  // true at the root forever
      if (live != size) {
        // Strip root-false literals in place before relocating.
        std::uint32_t w = 0;
        for (std::uint32_t i = 0; i < size; ++i) {
          const Lit l = arena_.lit(ref, i);
          if (value_of(l) != 0) arena_.set_lit(ref, w++, l);
        }
        PITFALLS_ENSURE(w >= 2, "sub-binary clause survived to arena GC");
        arena_.shrink(ref, w);
      }
      refs[kept++] = fresh.relocate(arena_, ref);
    }
    refs.resize(kept);
  };
  sweep(problem_refs_);
  sweep(learned_refs_);
  arena_ = std::move(fresh);

  for (auto& list : watches_) list.clear();
  for (auto& list : binary_watches_) list.clear();
  for (const ClauseRef ref : problem_refs_) attach_watches(ref);
  for (const ClauseRef ref : learned_refs_) attach_watches(ref);
}

SolveResult Solver::solve_limited(std::uint64_t max_conflicts,
                                  const std::vector<Lit>& assumptions) {
  if (unsat_at_root_) return SolveResult::kUnsat;
  PITFALLS_ENSURE(trail_lim_.empty(), "solve must start at level 0");
  for (const Lit a : assumptions)
    PITFALLS_REQUIRE(a.var() < num_vars(), "assumption over unknown variable");
  const StatsFlusher flusher(stats_, lbd_samples_);

  // Every unassigned variable must be decidable.
  order_.grow(num_vars());
  for (Var v = 0; v < num_vars(); ++v)
    if (assigns_[v] == kUndef && !order_.contains(v))
      order_.insert(v, activity_);
  if (reduce_limit_ == 0) reduce_limit_ = config_.reduce_base;

  std::uint64_t conflicts_this_call = 0;
  std::uint64_t conflicts_since_restart = 0;
  std::uint64_t restart_budget = config_.luby_base * luby_value(luby_index_);
  std::vector<Lit> learned;

  for (;;) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_this_call;
      ++conflicts_since_restart;
      if (trail_lim_.empty()) {
        unsat_at_root_ = true;
        return SolveResult::kUnsat;
      }
      std::uint32_t backtrack_level = 0;
      std::uint32_t lbd = 0;
      analyze(conflict, learned, backtrack_level, lbd);
      record_lbd(lbd);
      backtrack(backtrack_level);
      if (learned.size() == 1) {
        const bool ok = enqueue(learned[0], kNoClause);
        PITFALLS_ENSURE(ok, "asserting unit conflicted after backtrack");
        ++stats_.learned_literals;
      } else {
        const ClauseRef ref = attach_clause(learned, true, lbd);
        learned_refs_.push_back(ref);
        ++stats_.learned_clauses;
        stats_.learned_literals += learned.size();
        const bool ok = enqueue(learned[0], ref);
        PITFALLS_ENSURE(ok, "asserting literal conflicted after backtrack");
      }
      decay_activities();
      if (config_.reduce_base != 0 && learned_refs_.size() >= reduce_limit_) {
        reduce_db();
        reduce_limit_ += config_.reduce_increment;
      }
      if (max_conflicts != 0 && conflicts_this_call >= max_conflicts) {
        backtrack(0);
        return SolveResult::kUnknown;
      }
      continue;
    }

    if (conflicts_since_restart >= restart_budget) {
      conflicts_since_restart = 0;
      if (restart_blocked()) {
        ++stats_.blocked_restarts;
      } else {
        ++stats_.restarts;
        backtrack(0);
        if (arena_.wasted_words() > 1024 &&
            arena_.wasted_words() * 2 > arena_.used_words())
          collect_garbage();
      }
      ++luby_index_;
      restart_budget = config_.luby_base * luby_value(luby_index_);
      continue;
    }

    // Re-push assumptions as pseudo-decisions, then decide.
    Lit next;
    bool have_next = false;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit p = assumptions[trail_lim_.size()];
      const std::uint8_t v = value_of(p);
      if (v == 1) {
        // Already satisfied: open a dummy level to keep the invariant
        // "assumption i sits at level i+1".
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        continue;
      }
      if (v == 0) {
        // The clause set forces ~p: UNSAT under these assumptions, but the
        // solver itself stays usable.
        backtrack(0);
        return SolveResult::kUnsat;
      }
      next = p;
      have_next = true;
      break;
    }
    if (!have_next) {
      if (trail_.size() == num_vars()) {
        model_ = assigns_;
        backtrack(0);
        return SolveResult::kSat;
      }
      next = pick_branch();
      ++stats_.decisions;
    }
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    stats_.max_decision_level =
        std::max(stats_.max_decision_level,
                 static_cast<std::uint64_t>(trail_lim_.size()));
    const bool ok = enqueue(next, kNoClause);
    PITFALLS_ENSURE(ok, "decision literal was already assigned");
  }
}

bool Solver::model_value(Var v) const {
  PITFALLS_REQUIRE(v < model_.size(), "no model available for this variable");
  return model_[v] == 1;
}

}  // namespace pitfalls::sat
