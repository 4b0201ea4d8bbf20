// Checkpoint journal for the oracle-guided attacks (SAT attack, AppSAT): a
// decorator over attack::CircuitOracle, as RecordingOracle decorates
// ml::MembershipOracle. The attacks never see it; they query oracle().
//
// Contract: on construction any journalled observations are loaded from
// the session section. oracle() answers them in order without touching the
// live oracle (each booked as store.snapshot.replayed_queries) and raises
// store::ReplayDivergenceError when the attack asks a different input than
// the one recorded at that position. Once the record runs out it forwards
// to the live oracle, appends (x, y), and flushes the session every
// `flush_every` new observations, at once when a SIGTERM flush is pending.
// A null session makes it a plain passthrough, so callers can wire it
// unconditionally. oracle().queries() counts replayed and live queries
// alike, so an attack's oracle_queries is the same on a resumed run.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "attack/sat_attack.hpp"
#include "store/checkpoint.hpp"
#include "support/require.hpp"

namespace pitfalls::store {

class AttackObservationJournal {
 public:
  AttackObservationJournal(attack::CircuitOracle& live,
                           CheckpointSession* session, std::string section,
                           std::size_t flush_every = 16)
      : live_(&live),
        session_(session),
        section_(std::move(section)),
        flush_every_(flush_every),
        oracle_([this](const support::BitVec& x) { return answer(x); }) {
    if (session_ == nullptr) return;
    PITFALLS_REQUIRE(flush_every_ > 0, "flush cadence must be > 0");
    if (!session_->has_section(section_)) return;
    auto r = session_->reader(section_);
    while (!r.at_end()) {
      support::BitVec x = get_bitvec(r);
      support::BitVec y = get_bitvec(r);
      replay_.emplace_back(std::move(x), std::move(y));
    }
  }

  // oracle() calls back into this object.
  AttackObservationJournal(const AttackObservationJournal&) = delete;
  AttackObservationJournal& operator=(const AttackObservationJournal&) =
      delete;

  /// The oracle to hand the attack.
  attack::CircuitOracle& oracle() { return oracle_; }

  /// Observations served from the journal so far.
  std::size_t replayed() const { return cursor_; }

 private:
  support::BitVec answer(const support::BitVec& x) {
    if (cursor_ < replay_.size()) {
      const auto& [recorded_x, recorded_y] = replay_[cursor_];
      if (recorded_x != x) {
        throw_divergence("section '" + section_ + "', observation " +
                         std::to_string(cursor_));
      }
      ++cursor_;
      note_replayed_query();
      return recorded_y;
    }
    support::BitVec y = live_->query(x);
    if (session_ == nullptr) return y;
    auto& w = session_->section(section_);
    put_bitvec(w, x);
    put_bitvec(w, y);
    ++recorded_;
    if (recorded_ % flush_every_ == 0 || termination_requested())
      session_->flush();
    return y;
  }

  attack::CircuitOracle* live_;
  CheckpointSession* session_;
  std::string section_;
  std::size_t flush_every_;
  std::vector<std::pair<support::BitVec, support::BitVec>> replay_;
  std::size_t cursor_ = 0;
  std::size_t recorded_ = 0;
  attack::CircuitOracle oracle_;
};

}  // namespace pitfalls::store
