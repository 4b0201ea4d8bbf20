// Checkpoint journal for the oracle-guided attacks (SAT attack, AppSAT): a
// decorator over attack::CircuitOracle, as RecordingOracle decorates
// ml::MembershipOracle. The attacks never see it; they query oracle().
//
// Both decorators run on one record/replay core, store::OracleJournal
// (store/checkpoint.hpp); here a record is the observation (x, y). On
// construction any journalled observations are loaded from the session
// section. oracle() answers them in order without touching the live oracle
// (each booked as store.snapshot.replayed_queries) and raises
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
        journal_(session, std::move(section), flush_every),
        oracle_([this](const support::BitVec& x) {
          const support::BitVec* recorded = journal_.replay(x);
          return recorded != nullptr ? *recorded
                                     : journal_.record(x, live_->query(x));
        }) {
    PITFALLS_REQUIRE(flush_every > 0, "flush cadence must be > 0");
  }

  // oracle() calls back into this object.
  AttackObservationJournal(const AttackObservationJournal&) = delete;
  AttackObservationJournal& operator=(const AttackObservationJournal&) =
      delete;

  /// The oracle to hand the attack.
  attack::CircuitOracle& oracle() { return oracle_; }

  /// Observations served from the journal so far.
  std::size_t replayed() const { return journal_.replayed(); }

 private:
  attack::CircuitOracle* live_;
  OracleJournal<support::BitVec> journal_;
  attack::CircuitOracle oracle_;
};

}  // namespace pitfalls::store
