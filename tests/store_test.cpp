// Tests for the crash-safe experiment store (DESIGN.md §14): snapshot log
// integrity (corruption torture sweeps, seeded histories, flat flush cost),
// bit-exact codec round trips, checkpoint sessions, oracle journal
// record/replay, and the resume-determinism + budget-accounting contracts
// the benches rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/appsat.hpp"
#include "attack/sat_attack.hpp"
#include "circuit/generator.hpp"
#include "lock/combinational.hpp"
#include "ml/features.hpp"
#include "ml/robust/faults.hpp"
#include "ml/robust/learners.hpp"
#include "obs/metrics.hpp"
#include "puf/arbiter.hpp"
#include "store/checkpoint.hpp"
#include "store/observation_journal.hpp"
#include "store/serialize.hpp"
#include "support/rng.hpp"
#include "support/snapshot/snapshot.hpp"

namespace {

using namespace pitfalls;
using namespace pitfalls::support::snapshot;
using pitfalls::ml::robust::FaultConfig;
using pitfalls::ml::robust::FaultyMembershipOracle;
using pitfalls::ml::robust::LearnOutcome;
using pitfalls::ml::robust::QueryBudgetExhaustedError;
using pitfalls::ml::robust::RobustLearnConfig;
using pitfalls::ml::robust::TransientFaultError;
using pitfalls::support::BitVec;
using pitfalls::support::Rng;

// Scratch snapshot path removed (with its .tmp) when the test exits.
class TempSnapshot {
 public:
  explicit TempSnapshot(const std::string& name)
      : path_("store_test_" + name + ".snap") {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  ~TempSnapshot() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

BitVec make_bitvec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.coin());
  return v;
}

// A reference log shared by the corruption sweeps: the compacted image of
// its first flush, then three frames that append, replace, create and
// remove sections (one removes a section and creates it again, which moves
// it last). After each flush, `ends` holds the log size and `states` the
// compacted image of the section set, the byte-for-byte identity of a state.
struct ReferenceLog {
  std::string image;
  std::size_t header_size = 0;
  std::vector<std::size_t> ends;
  std::vector<std::string> states;
};

ReferenceLog reference_log() {
  SnapshotWriter w(42, "store_test.v2");
  ReferenceLog log;
  log.header_size = w.encode().size() - 8;  // no sections: an empty frame
  const auto flush = [&] {
    log.image += log.ends.empty() ? w.encode() : w.pending_frame();
    w.mark_persisted();
    log.ends.push_back(log.image.size());
    log.states.push_back(w.encode());
  };
  SectionWriter& a = w.section("alpha");
  a.u32(7);
  a.str("payload");
  for (int i = 0; i < 32; ++i) w.section("beta").u8(static_cast<std::uint8_t>(i));
  flush();
  w.section("alpha").str("more");  // append
  w.reset_section("beta").u64(99);  // replace
  w.section("gamma").u8(1);         // create
  flush();
  w.remove_section("alpha");  // remove
  w.section("gamma").u8(2);   // append
  flush();
  w.remove_section("beta");
  w.section("beta").str("reborn");  // remove, then create again: now last
  w.reset_section("gamma");         // replace with nothing
  flush();
  return log;
}

// The compacted image of the state a log prefix holds once `frames` frames
// of the reference log have applied (0: the header alone, no sections).
std::string state_after(const ReferenceLog& log, std::size_t frames) {
  return frames == 0 ? SnapshotWriter(42, "store_test.v2").encode()
                     : log.states[frames - 1];
}

// ---------------------------------------------------------------- format

TEST(SnapshotFormat, RoundTripsSeedProvenanceAndSections) {
  SnapshotWriter w(9001, "bench_x.v1.smoke=1");
  SectionWriter& s = w.section("s");
  s.u8(7);
  s.u32(0xDEADBEEFU);
  s.u64(0x0123456789ABCDEFULL);
  s.i64(-17);
  s.f64(-0.0);
  s.str("hello");
  w.section("empty");

  const SnapshotWriter r = SnapshotWriter::decode(w.encode());
  EXPECT_EQ(r.seed(), 9001u);
  EXPECT_EQ(r.provenance(), "bench_x.v1.smoke=1");
  EXPECT_EQ(r.section_names(), (std::vector<std::string>{"s", "empty"}));
  EXPECT_FALSE(r.torn_tail());

  SectionReader cur = r.reader("s");
  EXPECT_EQ(cur.u8(), 7u);
  EXPECT_EQ(cur.u32(), 0xDEADBEEFU);
  EXPECT_EQ(cur.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(cur.i64(), -17);
  const double neg_zero = cur.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(cur.str(), "hello");
  EXPECT_TRUE(cur.at_end());
  EXPECT_TRUE(r.reader("empty").at_end());
}

TEST(SnapshotFormat, EncodeIsDeterministic) {
  EXPECT_EQ(reference_log().image, reference_log().image);
  // Every frame boundary decodes to the writer's own state at that flush.
  const ReferenceLog log = reference_log();
  for (std::size_t k = 0; k < log.ends.size(); ++k)
    EXPECT_EQ(SnapshotWriter::decode(log.image.substr(0, log.ends[k])).encode(),
              log.states[k])
        << "after flush " << k + 1;
}

TEST(SnapshotFormat, SectionLifecycle) {
  SnapshotWriter w(1, "p");
  w.section("a").u8(1);
  w.section("a").u8(2);  // get-or-create appends
  EXPECT_EQ(w.section("a").size(), 2u);
  w.reset_section("a").u8(3);  // create-or-clear
  EXPECT_EQ(w.section("a").size(), 1u);
  EXPECT_TRUE(w.has_section("a"));
  w.remove_section("a");
  EXPECT_FALSE(w.has_section("a"));
  w.remove_section("never-existed");  // ignored
}

TEST(SnapshotFormat, FramesHoldOnlyWhatChanged) {
  SnapshotWriter w(1, "p");
  w.section("log").str("first");
  w.section("state").u64(1);
  w.mark_persisted();
  const std::string idle = w.pending_frame();
  EXPECT_EQ(idle.size(), 8u) << "an untouched log still gets one empty frame";
  w.section("log").str("next");
  const std::string appended = w.pending_frame();
  EXPECT_EQ(appended.find("first"), std::string::npos);
  EXPECT_NE(appended.find("next"), std::string::npos);
  // A section created and dropped between two frames never reaches the log.
  w.section("scratch").u8(1);
  w.remove_section("scratch");
  EXPECT_EQ(w.pending_frame(), appended);
}

TEST(SnapshotFormat, RejectsWrongMagic) {
  std::string image = reference_log().image;
  image[0] = 'X';
  try {
    (void)SnapshotWriter::decode(image);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.fault(), SnapshotFault::bad_magic);
  }
}

TEST(SnapshotFormat, RejectsUnknownVersion) {
  // Version 1 (the section-table format the log replaced) has no reader.
  for (const std::uint32_t version : {1U, kFormatVersion + 1}) {
    std::string image = reference_log().image;
    image[8] = static_cast<char>(version);
    try {
      (void)SnapshotWriter::decode(image);
      FAIL() << "version " << version << " accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.fault(), SnapshotFault::bad_version);
    }
  }
}

TEST(SnapshotFormat, CrcCleanFrameThatDoesNotParseIsMalformed) {
  const std::string header = SnapshotWriter(1, "p").encode();
  const auto frame = [](const std::string& body) {
    SectionWriter w;
    w.u32(static_cast<std::uint32_t>(body.size()));
    w.u32(crc32(body));
    w.raw(body);
    return w.bytes();
  };
  SectionWriter unknown_op;
  unknown_op.u8(7);
  unknown_op.str("s");
  SectionWriter short_bytes;
  short_bytes.u8(0);  // append
  short_bytes.str("s");
  short_bytes.u32(100);  // declares 100 bytes, carries none
  for (const std::string& body : {unknown_op.bytes(), short_bytes.bytes()}) {
    try {
      (void)SnapshotWriter::decode(header + frame(body));
      FAIL() << "unparsable frame accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.fault(), SnapshotFault::malformed);
    }
  }
}

TEST(SnapshotFormat, TruncationAtEveryByteOffsetIsDetected) {
  // Inside the header a typed error; past it, exactly the state after the
  // last whole frame, with any partial frame reported as a torn tail.
  const ReferenceLog log = reference_log();
  for (std::size_t len = 0; len <= log.image.size(); ++len) {
    const std::string prefix = log.image.substr(0, len);
    if (len < log.header_size) {
      try {
        (void)SnapshotWriter::decode(prefix);
        ADD_FAILURE() << "header prefix of " << len << " bytes accepted";
      } catch (const SnapshotError& e) {
        EXPECT_EQ(e.fault(), SnapshotFault::truncated) << "len " << len;
      }
      continue;
    }
    std::size_t frames = 0;
    while (frames < log.ends.size() && log.ends[frames] <= len) ++frames;
    const std::size_t boundary =
        frames == 0 ? log.header_size : log.ends[frames - 1];
    const SnapshotWriter decoded = SnapshotWriter::decode(prefix);
    EXPECT_EQ(decoded.encode(), state_after(log, frames)) << "len " << len;
    EXPECT_EQ(decoded.torn_tail(), len != boundary) << "len " << len;
  }
}

TEST(SnapshotFormat, BitFlipAtEveryByteOffsetIsDetected) {
  // In the header a typed error; in frame k, the state after frame k-1 and
  // a torn tail.
  const ReferenceLog log = reference_log();
  for (std::size_t i = 0; i < log.image.size(); ++i) {
    std::string mutated = log.image;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    if (i < log.header_size) {
      try {
        (void)SnapshotWriter::decode(mutated);
        ADD_FAILURE() << "bit flip at header byte " << i << " accepted";
      } catch (const SnapshotError& e) {
        EXPECT_NE(e.fault(), SnapshotFault::io) << "byte " << i;
        EXPECT_NE(e.fault(), SnapshotFault::malformed) << "byte " << i;
      }
      continue;
    }
    std::size_t frame = 0;
    while (log.ends[frame] <= i) ++frame;
    const SnapshotWriter decoded = SnapshotWriter::decode(mutated);
    EXPECT_EQ(decoded.encode(), state_after(log, frame)) << "byte " << i;
    EXPECT_TRUE(decoded.torn_tail()) << "byte " << i;
  }
}

TEST(SnapshotFormat, SectionReaderNeverReadsPastTheEnd) {
  SnapshotWriter w(1, "p");
  w.section("s").u32(5);
  const SnapshotWriter r = SnapshotWriter::decode(w.encode());
  SectionReader cur = r.reader("s");
  EXPECT_EQ(cur.u32(), 5u);
  try {
    cur.u8();
    FAIL() << "read past end succeeded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.fault(), SnapshotFault::bad_section);
  }
  // A length-prefixed string whose declared length exceeds the payload.
  SnapshotWriter w2(1, "p");
  w2.section("s").u32(1000);
  const SnapshotWriter r2 = SnapshotWriter::decode(w2.encode());
  SectionReader cur2 = r2.reader("s");
  EXPECT_THROW(cur2.str(), SnapshotError);
}

TEST(SnapshotFormat, MissingSectionIsATypedError) {
  const SnapshotWriter r = SnapshotWriter::decode(reference_log().image);
  try {
    r.reader("nope");
    FAIL() << "missing section returned";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.fault(), SnapshotFault::bad_section);
  }
}

TEST(SnapshotFormat, AtomicWriteReplacesAndCleansUp) {
  TempSnapshot file("atomic");
  write_file_atomic(file.path(), "first");
  EXPECT_EQ(read_file_bytes(file.path()), "first");
  write_file_atomic(file.path(), "second, longer than the first");
  EXPECT_EQ(read_file_bytes(file.path()), "second, longer than the first");
  // The staging file never survives a completed write.
  EXPECT_THROW(read_file_bytes(file.path() + ".tmp"), SnapshotError);
  append_file_durable(file.path(), "+tail");
  EXPECT_EQ(read_file_bytes(file.path()),
            "second, longer than the first+tail");
}

TEST(SnapshotFormat, StrayTmpFromAKilledWriterIsHarmless) {
  TempSnapshot file("straytmp");
  const std::string image = reference_log().image;
  write_file_atomic(file.path(), image);
  // A writer killed mid-write leaves a torn .tmp; the published path is
  // untouched and the next atomic write simply overwrites the leftovers.
  write_file_atomic(file.path() + ".tm", "partial gar");  // any bytes
  std::rename((file.path() + ".tm").c_str(), (file.path() + ".tmp").c_str());
  EXPECT_EQ(read_file_bytes(file.path()), image);
  write_file_atomic(file.path(), "fresh");
  EXPECT_EQ(read_file_bytes(file.path()), "fresh");
}

// ---------------------------------------------------------------- codecs

TEST(StoreCodecs, BitVecRoundTripsAllSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{13},
                              std::size_t{64}, std::size_t{65},
                              std::size_t{130}}) {
    const BitVec v = make_bitvec(n, 77 + n);
    SectionWriter w;
    store::put_bitvec(w, v);
    SectionReader r(w.bytes(), "t");
    EXPECT_EQ(store::get_bitvec(r), v) << "n=" << n;
    EXPECT_TRUE(r.at_end());
  }
}

TEST(StoreCodecs, DoublesRoundTripBitExactly) {
  // Doubles travel as IEEE-754 bit patterns inside the linear-model codec:
  // -0.0, the extremes and 0.1 come back bit for bit.
  const std::vector<double> values = {0.0, -0.0, 1.0, -1.5,
                                      1e-308, 1e308, 0.1};
  const ml::LinearModel model(6, values, ml::parity_with_bias, "doubles");
  SectionWriter w;
  store::put_linear_model(w, model);
  SectionReader r(w.bytes(), "t");
  const std::vector<double> back =
      store::get_linear_model(r, ml::parity_with_bias).weights();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << "index " << i;
  }
  EXPECT_TRUE(r.at_end());
}

TEST(StoreCodecs, HypothesisClassesRoundTrip) {
  const BitVec probe = make_bitvec(6, 3);

  const ml::LinearModel model(6, {0.5, -1.25, 0.0, 2.0, -0.75, 0.25, 1.0},
                              ml::parity_with_bias, "test model");
  SectionWriter wm;
  store::put_linear_model(wm, model);
  SectionReader rm(wm.bytes(), "t");
  const ml::LinearModel model2 =
      store::get_linear_model(rm, ml::parity_with_bias);
  EXPECT_EQ(model2.weights(), model.weights());
  EXPECT_EQ(model2.describe(), model.describe());
  EXPECT_EQ(model2.eval_pm(probe), model.eval_pm(probe));
  EXPECT_TRUE(rm.at_end());

  const ml::SparseFourierHypothesis fourier(
      6, {make_bitvec(6, 1), make_bitvec(6, 2)}, {0.75, -0.5});
  SectionWriter wf;
  store::put_sparse_fourier(wf, fourier);
  SectionReader rf(wf.bytes(), "t");
  const ml::SparseFourierHypothesis fourier2 = store::get_sparse_fourier(rf);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fourier2.approximation(probe)),
            std::bit_cast<std::uint64_t>(fourier.approximation(probe)));
}

TEST(StoreCodecs, OutcomeRoundTrip) {
  LearnOutcome<ml::LinearModel> outcome;
  outcome.status = ml::robust::LearnStatus::budget_exhausted;
  outcome.best_hypothesis.emplace(
      ml::LinearModel(4, {1.0, 2.0, 3.0, 4.0, 5.0},
                      ml::parity_with_bias, "h"));
  outcome.queries_spent = 321;
  outcome.diagnostics["heldout_accuracy"] = 0.9375;
  outcome.diagnostics["train_examples"] = 300.0;

  SectionWriter w;
  store::put_outcome(w, outcome,
                     [](SectionWriter& hw, const ml::LinearModel& m) {
                       store::put_linear_model(hw, m);
                     });
  SectionReader r(w.bytes(), "t");
  const auto back = store::get_outcome<ml::LinearModel>(
      r, [](SectionReader& hr) {
        return store::get_linear_model(hr, ml::parity_with_bias);
      });
  EXPECT_EQ(back.status, outcome.status);
  ASSERT_TRUE(back.best_hypothesis.has_value());
  EXPECT_EQ(back.best_hypothesis->weights(), outcome.best_hypothesis->weights());
  EXPECT_EQ(back.queries_spent, 321u);
  EXPECT_EQ(back.diagnostics, outcome.diagnostics);
}

// ------------------------------------------------------ checkpoint session

TEST(CheckpointSession, FreshStartWhenNoSnapshotExists) {
  TempSnapshot file("fresh");
  store::CheckpointSession session(file.path(), 7, "p", /*resume=*/true);
  EXPECT_FALSE(session.resumed());
}

TEST(CheckpointSession, UnwritablePathFailsAtConstruction) {
  // The probe must reject a doomed path up front (catchable, so benches can
  // print a diagnostic and exit cleanly), not at the first cadence flush.
  try {
    store::CheckpointSession session("/nonexistent-dir/depth/x.snap", 7, "p",
                                     false);
    FAIL() << "expected SnapshotError{io}";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.fault(), SnapshotFault::io);
  }
}

TEST(CheckpointSession, FlushThenResumeRestoresSections) {
  TempSnapshot file("resume");
  const std::uint64_t loads0 = counter_value("store.snapshot.loads");
  const std::uint64_t resumed0 = counter_value("store.snapshot.resumed");
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("cell.0.outcome").str("done");
    session.flush();
  }
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0 + 1);

  store::CheckpointSession session(file.path(), 7, "p", true);
  EXPECT_TRUE(session.resumed());
  ASSERT_TRUE(session.has_section("cell.0.outcome"));
  EXPECT_EQ(session.reader("cell.0.outcome").str(), "done");
  EXPECT_EQ(counter_value("store.snapshot.loads"), loads0 + 1);
  EXPECT_EQ(counter_value("store.snapshot.resumed"), resumed0 + 1);
}

TEST(CheckpointSession, CorruptSnapshotDegradesToCleanStart) {
  // A damaged header leaves nothing to trust: clean start, counted.
  TempSnapshot file("corrupt");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  // Flip a seed byte on disk (the header CRC must catch it).
  std::string bytes = read_file_bytes(file.path());
  bytes[12] = static_cast<char>(bytes[12] ^ 0x01);
  write_file_atomic(file.path(), bytes);

  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  store::CheckpointSession session(file.path(), 7, "p", true);
  EXPECT_FALSE(session.resumed());
  EXPECT_FALSE(session.has_section("s"));
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
}

TEST(CheckpointSession, CorruptLastFrameResumesFromTheFlushBefore) {
  // A damaged last frame is a flush that never landed: the session resumes
  // from the flushes before it, counts the loss once, and its first flush
  // compacts the bad tail away.
  TempSnapshot file("torn");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
    session.section("s").u64(2);
    session.reset_section("t").u8(9);
    session.flush();
  }
  std::string bytes = read_file_bytes(file.path());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);
  write_file_atomic(file.path(), bytes);

  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  const std::uint64_t loads0 = counter_value("store.snapshot.loads");
  const std::uint64_t resumed0 = counter_value("store.snapshot.resumed");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ASSERT_TRUE(session.resumed());
    SectionReader r = session.reader("s");
    EXPECT_EQ(r.u64(), 1u);
    EXPECT_TRUE(r.at_end());
    EXPECT_FALSE(session.has_section("t"));
    EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
    EXPECT_EQ(counter_value("store.snapshot.loads"), loads0 + 1);
    EXPECT_EQ(counter_value("store.snapshot.resumed"), resumed0 + 1);
    session.flush();
  }
  const SnapshotWriter compacted =
      SnapshotWriter::decode(read_file_bytes(file.path()));
  EXPECT_FALSE(compacted.torn_tail());
  EXPECT_EQ(compacted.section_names(), std::vector<std::string>{"s"});
}

TEST(CheckpointSession, FlushCostStaysFlatAsTheLogGrows) {
  // Every flush appends the same 16-byte record, so the 500th flush writes
  // exactly as many bytes as the 2nd: one frame with one append.
  TempSnapshot file("flat");
  store::CheckpointSession session(file.path(), 7, "p", false);
  std::vector<std::uint64_t> written;
  for (std::uint64_t i = 0; i < 500; ++i) {
    session.section("log").u64(i);
    session.section("log").u64(~i);
    const std::uint64_t before = counter_value("store.snapshot.bytes_written");
    session.flush();
    written.push_back(counter_value("store.snapshot.bytes_written") - before);
  }
  EXPECT_EQ(written[499], written[1]);
  std::uint64_t total = 0;
  for (const std::uint64_t bytes : written) total += bytes;
  const std::string image = read_file_bytes(file.path());
  EXPECT_EQ(image.size(), total);
  EXPECT_EQ(SnapshotWriter::decode(image).reader("log").remaining(),
            500u * 16u);
}

TEST(CheckpointSession, SeededHistoriesDecodeToTheLiveSectionSet) {
  // 200 seeded histories of append / reset / remove / flush against a plain
  // model of the section set: after every flush the file decodes to the
  // model byte for byte. Some flushes end the session and resume it, so the
  // next flush compacts a log that earlier sessions appended to.
  TempSnapshot file("history");
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  std::size_t flushes = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 4000);
    std::vector<std::pair<std::string, std::string>> model;
    const auto find = [&](const std::string& name) {
      return std::find_if(model.begin(), model.end(),
                          [&](const auto& entry) { return entry.first == name; });
    };
    auto session =
        std::make_unique<store::CheckpointSession>(file.path(), 7, "p", false);
    for (int step = 0; step < 30; ++step) {
      const std::string& name = names[rng.uniform_below(names.size())];
      const std::string bytes(rng.uniform_below(6),
                              static_cast<char>('a' + step % 26));
      const auto it = find(name);
      switch (rng.uniform_below(5)) {
        case 0:
        case 1:  // append
          session->section(name).raw(bytes);
          if (it == model.end()) {
            model.emplace_back(name, bytes);
          } else {
            it->second += bytes;
          }
          break;
        case 2:  // reset
          session->reset_section(name).raw(bytes);
          if (it == model.end()) {
            model.emplace_back(name, bytes);
          } else {
            it->second = bytes;
          }
          break;
        case 3:  // remove
          session->remove_section(name);
          if (it != model.end()) model.erase(it);
          break;
        default: {
          session->flush();
          ++flushes;
          const SnapshotWriter decoded =
              SnapshotWriter::decode(read_file_bytes(file.path()));
          ASSERT_FALSE(decoded.torn_tail());
          std::vector<std::string> model_names;
          for (const auto& entry : model) model_names.push_back(entry.first);
          ASSERT_EQ(decoded.section_names(), model_names)
              << "seed " << seed << ", step " << step;
          for (const auto& [section, content] : model) {
            SectionReader r = decoded.reader(section);
            EXPECT_EQ(r.raw(r.remaining()), content)
                << "seed " << seed << ", step " << step << ", " << section;
          }
          if (rng.coin()) {
            session.reset();
            session = std::make_unique<store::CheckpointSession>(
                file.path(), 7, "p", true);
            ASSERT_TRUE(session->resumed());
          }
        }
      }
    }
  }
  EXPECT_GT(flushes, 1000u);
}

TEST(CheckpointSession, IdentityMismatchStartsCleanWithoutCorruptFlag) {
  TempSnapshot file("mismatch");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  const std::uint64_t mismatch0 = counter_value("store.snapshot.mismatch");
  store::CheckpointSession other_seed(file.path(), 8, "p", true);
  EXPECT_FALSE(other_seed.resumed());
  store::CheckpointSession other_prov(file.path(), 7, "q", true);
  EXPECT_FALSE(other_prov.resumed());
  EXPECT_EQ(counter_value("store.snapshot.mismatch"), mismatch0 + 2);
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0);
}

TEST(CheckpointSession, CrashHookExitsRightAfterTheNthFlush) {
  TempSnapshot file("crash");
  // The threadsafe style re-executes this binary, whose store reads the
  // hook's variable afresh at startup; this process never sees it armed.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  setenv("PITFALLS_CRASH_AFTER_FLUSHES", "2", 1);
  const auto flush_three_times = [&] {
    store::CheckpointSession session(file.path(), 7, "p", false);
    session.section("a").u32(1);
    session.flush();
    session.section("a").u32(2);
    session.flush();
    session.section("a").u32(3);
    session.flush();
  };
  EXPECT_EXIT(flush_three_times(), ::testing::ExitedWithCode(137), "");
  unsetenv("PITFALLS_CRASH_AFTER_FLUSHES");
  // The crash left the second flush durable, and nothing after it.
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  SectionReader r = session.reader("a");
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_TRUE(r.at_end());
}

TEST(CheckpointSession, CheckpointWithoutResumeIgnoresExistingSnapshot) {
  TempSnapshot file("noresume");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    session.section("s").u64(1);
    session.flush();
  }
  store::CheckpointSession session(file.path(), 7, "p", /*resume=*/false);
  EXPECT_FALSE(session.resumed());
  EXPECT_FALSE(session.has_section("s"));
}

// ------------------------------------------------------- recording oracle

TEST(RecordingOracle, ReplayServesRecordedAnswersWithoutPhysicalQueries) {
  TempSnapshot file("replay");
  Rng setup(11);
  const puf::ArbiterPuf target(8, 0.0, setup);
  const std::size_t kQueries = 40;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < kQueries; ++i)
    challenges.push_back(make_bitvec(8, 500 + i));

  std::vector<int> recorded;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle oracle(inner, &session, "u.log", 8);
    for (const BitVec& x : challenges) recorded.push_back(oracle.query_pm(x));
    oracle.flush_now();
    EXPECT_EQ(inner.queries(), kQueries);
    EXPECT_EQ(oracle.recorded_events(), kQueries);
    EXPECT_FALSE(oracle.replaying());
  }

  const std::uint64_t replayed0 =
      counter_value("store.snapshot.replayed_queries");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle oracle(inner, &session, "u.log", 8);
  EXPECT_TRUE(oracle.replaying());
  for (std::size_t i = 0; i < kQueries; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), recorded[i]) << "query " << i;
  EXPECT_FALSE(oracle.replaying());
  EXPECT_EQ(oracle.replayed_queries(), kQueries);
  EXPECT_EQ(inner.queries(), 0u) << "replay touched the physical oracle";
  EXPECT_EQ(oracle.queries(), kQueries) << "replay must still count locally";
  EXPECT_EQ(counter_value("store.snapshot.replayed_queries"),
            replayed0 + kQueries);
}

TEST(RecordingOracle, BudgetIsNotDoubleChargedAcrossResume) {
  // A budget-B channel interrupted after k queries must have exactly B-k
  // answers left after resume. The journal sits beneath the channel: the
  // fresh channel re-walks its fault stream over the k replayed answers,
  // which reach no token, and continues as if the run had never stopped.
  TempSnapshot file("budget");
  Rng setup(13);
  const puf::ArbiterPuf target(8, 0.0, setup);
  const std::size_t kBudget = 12;
  const std::size_t kBeforeCrash = 5;
  FaultConfig fc;
  fc.flip_rate = 0.3;
  fc.query_budget = kBudget;

  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < kBudget; ++i)
    challenges.push_back(make_bitvec(8, 900 + i));

  // Uninterrupted reference: all kBudget answers, then refusal.
  std::vector<int> reference;
  {
    ml::FunctionMembershipOracle inner(target);
    FaultyMembershipOracle oracle(inner, fc, 4242);
    for (const BitVec& x : challenges) reference.push_back(oracle.query_pm(x));
    EXPECT_THROW(oracle.query_pm(challenges[0]), QueryBudgetExhaustedError);
  }

  {  // Interrupted run: k queries, flush, "crash".
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle journal(inner, &session, "u.log", 4);
    FaultyMembershipOracle oracle(journal, fc, 4242);
    for (std::size_t i = 0; i < kBeforeCrash; ++i)
      EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]);
    journal.flush_now();
    EXPECT_EQ(oracle.remaining_budget(), kBudget - kBeforeCrash);
  }

  // Resume: a FRESH fault channel (budget back at B) over the journal.
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle journal(inner, &session, "u.log", 4);
  FaultyMembershipOracle oracle(journal, fc, 4242);
  for (std::size_t i = 0; i < kBeforeCrash; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]);
  // Replay complete: the channel sits exactly where the crash left it.
  EXPECT_EQ(oracle.remaining_budget(), kBudget - kBeforeCrash);
  EXPECT_EQ(inner.queries(), 0u);
  // The remaining budget serves the remaining queries with the same fault
  // pattern as the uninterrupted run, then refuses.
  for (std::size_t i = kBeforeCrash; i < kBudget; ++i)
    EXPECT_EQ(oracle.query_pm(challenges[i]), reference[i]) << "query " << i;
  EXPECT_THROW(oracle.query_pm(challenges[0]), QueryBudgetExhaustedError);
  EXPECT_EQ(inner.queries(), kBudget - kBeforeCrash);
}

// Drops and refusals never reach the token, so the journal holds answers
// only; on resume the re-walked channel raises the same drops and refusals
// at the same positions, and the answers replay.
TEST(RecordingOracle, BudgetRefusalsAndDropsReplayAsEvents) {
  TempSnapshot file("events");
  Rng setup(17);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.drop_rate = 0.5;
  fc.query_budget = 6;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 10; ++i)
    challenges.push_back(make_bitvec(8, 700 + i));

  // Record interactions until the budget refuses a few times.
  std::vector<int> kinds;  // +1/-1 answer, 0 drop, 9 refusal
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle journal(inner, &session, "u.log", 2);
    FaultyMembershipOracle oracle(journal, fc, 99);
    for (const BitVec& x : challenges) {
      try {
        kinds.push_back(oracle.query_pm(x));
      } catch (const TransientFaultError&) {
        kinds.push_back(0);
      } catch (const QueryBudgetExhaustedError&) {
        kinds.push_back(9);
      }
    }
    journal.flush_now();
  }
  EXPECT_NE(std::count(kinds.begin(), kinds.end(), 9), 0)
      << "test setup never exhausted the budget";
  EXPECT_NE(std::count(kinds.begin(), kinds.end(), 0), 0)
      << "test setup never dropped a round";
  const auto answered = static_cast<std::size_t>(
      std::count(kinds.begin(), kinds.end(), +1) +
      std::count(kinds.begin(), kinds.end(), -1));

  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle journal(inner, &session, "u.log", 2);
  FaultyMembershipOracle oracle(journal, fc, 99);
  for (std::size_t i = 0; i < challenges.size(); ++i) {
    int kind = 0;
    try {
      kind = oracle.query_pm(challenges[i]);
    } catch (const TransientFaultError&) {
      kind = 0;
    } catch (const QueryBudgetExhaustedError&) {
      kind = 9;
    }
    EXPECT_EQ(kind, kinds[i]) << "event " << i;
  }
  EXPECT_EQ(inner.queries(), 0u);
  EXPECT_EQ(journal.replayed_queries(), answered)
      << "the journal should hold the token's answers and nothing else";
}

// DESIGN.md §16: a lockdown-tripped recording can be continued against a
// larger budget. The refusal never reached the token, so the journal holds
// only the answers: a channel built with the larger budget re-walks them
// for free, and only the continuation queries reach the physical oracle.
TEST(RecordingOracle, RefilledBudgetContinuationChargesOnlyLiveQueries) {
  TempSnapshot file("refill");
  Rng setup(23);
  const puf::ArbiterPuf target(8, 0.0, setup);
  FaultConfig fc;
  fc.query_budget = 5;
  std::vector<BitVec> challenges;
  for (std::size_t i = 0; i < 12; ++i)
    challenges.push_back(make_bitvec(8, 900 + i));

  // Leg 1: answer until the lockdown trips (5 answers, then a recorded
  // budget refusal).
  std::vector<int> first_answers;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle journal(inner, &session, "u.log", 2);
    FaultyMembershipOracle oracle(journal, fc, 5);
    for (const BitVec& x : challenges) {
      try {
        first_answers.push_back(oracle.query_pm(x));
      } catch (const QueryBudgetExhaustedError&) {
        break;
      }
    }
    journal.flush_now();
  }
  ASSERT_EQ(first_answers.size(), 5u);

  // Leg 2: a channel with the larger budget. The recorded prefix replays
  // byte-identically without touching the inner oracle; the remaining
  // challenges are answered live against the larger budget.
  FaultConfig larger = fc;
  larger.query_budget = 20;
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle journal(inner, &session, "u.log", 2);
  FaultyMembershipOracle oracle(journal, larger, 5);
  std::vector<int> answers;
  for (const BitVec& x : challenges) answers.push_back(oracle.query_pm(x));
  ASSERT_EQ(answers.size(), challenges.size());
  for (std::size_t i = 0; i < first_answers.size(); ++i)
    EXPECT_EQ(answers[i], first_answers[i]) << "replayed answer " << i;
  EXPECT_EQ(journal.replayed_queries(), 5u);
  EXPECT_EQ(inner.queries(), challenges.size() - first_answers.size());
}

TEST(RecordingOracle, DivergenceThrowsAndBooksTheMetric) {
  TempSnapshot file("diverge");
  Rng setup(19);
  const puf::ArbiterPuf target(8, 0.0, setup);
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle oracle(inner, &session, "u.log", 2);
    (void)oracle.query_pm(make_bitvec(8, 1));
    oracle.flush_now();
  }
  const std::uint64_t divergence0 = counter_value("store.snapshot.divergence");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ml::FunctionMembershipOracle inner(target);
  store::RecordingOracle oracle(inner, &session, "u.log", 2);
  EXPECT_THROW(oracle.query_pm(make_bitvec(8, 2)),
               store::ReplayDivergenceError);
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence0 + 1);
  EXPECT_EQ(inner.queries(), 0u);
}

// ------------------------------------------------------ checkpointed units

TEST(CheckpointedUnit, StoredOutcomeShortCircuitsTheRun) {
  TempSnapshot file("unit");
  int runs = 0;
  const auto run = [&] {
    ++runs;
    LearnOutcome<ml::LinearModel> outcome;
    outcome.status = ml::robust::LearnStatus::converged;
    outcome.queries_spent = 5;
    return outcome;
  };
  const auto put = [](SectionWriter& w,
                      const LearnOutcome<ml::LinearModel>& o) {
    store::put_outcome(w, o, [](SectionWriter&, const ml::LinearModel&) {});
  };
  const auto get = [](SectionReader& r) {
    return store::get_outcome<ml::LinearModel>(
        r, [](SectionReader&) -> ml::LinearModel {
          return ml::LinearModel(1, {0.0, 0.0}, ml::parity_with_bias);
        });
  };

  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    const auto o = store::checkpointed_unit<LearnOutcome<ml::LinearModel>>(
        &session, "cell.0", run, put, get);
    EXPECT_EQ(o.queries_spent, 5u);
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(session.has_section("cell.0.log"));
  }
  store::CheckpointSession session(file.path(), 7, "p", true);
  const auto o = store::checkpointed_unit<LearnOutcome<ml::LinearModel>>(
      &session, "cell.0", run, put, get);
  EXPECT_EQ(o.queries_spent, 5u);
  EXPECT_EQ(runs, 1) << "stored outcome re-ran the unit";
}

TEST(CheckpointedUnit, TerminationExitsAfterTheCellIsFlushed) {
  // The cooperative SIGTERM path: with termination requested, the cell
  // still runs and is flushed, then the process exits 143.
  TempSnapshot file("exit");
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto run_cell = [&] {
    store::CheckpointSession session(file.path(), 7, "p", true);
    store::request_termination();
    (void)store::checkpointed_unit<double>(
        &session, "cell.0", [] { return 0.25; },
        [](SectionWriter& w, const double& v) { w.f64(v); },
        [](SectionReader& r) { return r.f64(); });
  };
  EXPECT_EXIT(run_cell(), ::testing::ExitedWithCode(143),
              "termination requested");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.has_section("cell.0.outcome"));
  EXPECT_EQ(session.reader("cell.0.outcome").f64(), 0.25);
}

// Serialized image of an outcome — byte equality is the strongest
// observable identity the resume contract promises.
template <typename H, typename PutH>
std::string outcome_bytes(const LearnOutcome<H>& outcome, PutH&& put) {
  SectionWriter w;
  store::put_outcome(w, outcome, put);
  return w.bytes();
}

TEST(ResumeDeterminism, LearnerRerunFromJournalIsByteIdentical) {
  // Full-journal replay is the resume path's worst case: the learner
  // re-runs from scratch with every oracle answer served from the log. The
  // outcome must serialize to the same bytes and cost zero physical
  // queries.
  TempSnapshot file("learner");
  Rng setup(7);
  const puf::ArbiterPuf target(10, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.1;
  fc.query_budget = 900;
  RobustLearnConfig config;
  config.train_queries = 600;
  config.holdout_queries = 120;

  const auto run_once = [&](store::CheckpointSession* session,
                            std::size_t& physical) {
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle journal(inner, session, "cell.log", 64);
    FaultyMembershipOracle faulty(journal, fc, 31337);
    Rng rng(41);
    const auto o = robust_perceptron(faulty, ml::parity_with_bias, config,
                                     rng);
    journal.flush_now();
    physical = inner.queries();
    return o;
  };
  const auto put = [](SectionWriter& w, const ml::LinearModel& m) {
    store::put_linear_model(w, m);
  };

  std::size_t physical_plain = 0;
  const auto plain = run_once(nullptr, physical_plain);

  std::size_t physical_recorded = 0;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    const auto recorded = run_once(&session, physical_recorded);
    EXPECT_EQ(outcome_bytes(recorded, put), outcome_bytes(plain, put));
    EXPECT_EQ(physical_recorded, physical_plain);
  }

  std::size_t physical_replayed = 0;
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  const auto replayed = run_once(&session, physical_replayed);
  EXPECT_EQ(outcome_bytes(replayed, put), outcome_bytes(plain, put));
  EXPECT_EQ(physical_replayed, 0u)
      << "resume re-queried the physical oracle";
}

TEST(ResumeDeterminism, TornLastFrameResumesFromThePreviousFlush) {
  // A crash between a frame's append and its fsync can leave any prefix of
  // that frame on disk. Cut the learner's log inside its last frame: the
  // rerun resumes from the previous flush, replays it for free (the fault
  // channel re-walks its stream over it), asks the physical oracle only for
  // the rest, and ends byte-identical.
  TempSnapshot file("torn_learner");
  Rng setup(7);
  const puf::ArbiterPuf target(10, 0.0, setup);
  FaultConfig fc;
  fc.flip_rate = 0.1;
  fc.query_budget = 900;
  RobustLearnConfig config;
  config.train_queries = 600;
  config.holdout_queries = 120;

  struct Run {
    LearnOutcome<ml::LinearModel> outcome;
    std::size_t physical = 0;
    std::size_t replayed = 0;
  };
  const auto run_once = [&](store::CheckpointSession* session) {
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle journal(inner, session, "cell.log", 64);
    FaultyMembershipOracle faulty(journal, fc, 31337);
    Rng rng(41);
    Run run;
    run.outcome = robust_perceptron(faulty, ml::parity_with_bias, config, rng);
    journal.flush_now();
    run.replayed = journal.replayed_queries();
    run.physical = inner.queries();
    return run;
  };
  const auto put = [](SectionWriter& w, const ml::LinearModel& m) {
    store::put_linear_model(w, m);
  };

  const Run plain = run_once(nullptr);
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    (void)run_once(&session);
  }

  // Walk the frames and cut the file halfway into the last one.
  const std::string image = read_file_bytes(file.path());
  SectionReader frames(image, "log");
  (void)frames.raw(SnapshotWriter(7, "p").encode().size() - 8);  // header
  std::size_t last_start = 0;
  std::size_t last_size = 0;
  while (!frames.at_end()) {
    last_start = image.size() - frames.remaining();
    last_size = 8 + frames.u32();
    (void)frames.raw(last_size - 4);
  }
  write_file_atomic(file.path(), image.substr(0, last_start + last_size / 2));

  const std::uint64_t corrupt0 = counter_value("store.snapshot.corrupt");
  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  EXPECT_EQ(counter_value("store.snapshot.corrupt"), corrupt0 + 1);
  const Run resumed = run_once(&session);
  EXPECT_EQ(outcome_bytes(resumed.outcome, put), outcome_bytes(plain.outcome, put));
  EXPECT_GT(resumed.replayed, 0u);
  EXPECT_GT(resumed.physical, 0u) << "the cut frame's queries must rerun live";
  EXPECT_EQ(resumed.replayed + resumed.physical, plain.physical)
      << "resume re-queried a journaled interaction";
}

TEST(ResumeDeterminism, SatAttackRerunFromJournalMatches) {
  TempSnapshot file("sat");
  const circuit::Netlist netlist = circuit::c17();
  Rng lock_rng(1004);
  const lock::LockedCircuit locked =
      lock::lock_random_xor(netlist, 4, lock_rng);

  attack::SatAttackResult first;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    attack::CircuitOracle live = attack::CircuitOracle::from_netlist(netlist);
    store::AttackObservationJournal journal(live, &session, "cell.log", 2);
    first = attack::sat_attack(locked, journal.oracle());
    session.flush();
    EXPECT_EQ(journal.replayed(), 0u);
    EXPECT_EQ(live.queries(), first.oracle_queries);
  }
  ASSERT_TRUE(first.success);

  store::CheckpointSession session(file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  attack::CircuitOracle live = attack::CircuitOracle::from_netlist(netlist);
  store::AttackObservationJournal journal(live, &session, "cell.log", 2);
  const attack::SatAttackResult second =
      attack::sat_attack(locked, journal.oracle());
  EXPECT_EQ(second.key, first.key);
  EXPECT_EQ(second.dip_iterations, first.dip_iterations);
  EXPECT_EQ(second.oracle_queries, first.oracle_queries);
  EXPECT_EQ(second.solver_stats.conflicts, first.solver_stats.conflicts);
  EXPECT_EQ(journal.replayed(), first.oracle_queries)
      << "the rerun should be served entirely from the journal";
  EXPECT_EQ(live.queries(), 0u);
}

// AppSAT journals DIP and settle-phase queries interleaved in call order;
// its settle inputs come from the caller's rng, re-seeded identically.
TEST(ResumeDeterminism, AppSatRerunFromJournalMatches) {
  TempSnapshot file("appsat");
  TempSnapshot cut_file("appsat_cut");
  const circuit::Netlist cmp = circuit::equality_comparator(6);
  Rng lock_rng(21);
  const lock::LockedCircuit locked = lock::lock_random_xor(cmp, 8, lock_rng);
  attack::AppSatConfig config;
  config.dips_per_round = 2;
  config.random_queries = 64;
  config.error_threshold = 0.03;

  struct Run {
    attack::AppSatResult result;
    std::size_t replayed = 0;
    std::size_t live = 0;
  };
  const auto run = [&](store::CheckpointSession* session) {
    attack::CircuitOracle live = attack::CircuitOracle::from_netlist(cmp);
    store::AttackObservationJournal journal(live, session, "cell.log", 4);
    Rng attack_rng(22);
    Run out;
    out.result = attack::appsat(locked, journal.oracle(), attack_rng, config);
    if (session != nullptr) session->flush();
    out.replayed = journal.replayed();
    out.live = live.queries();
    return out;
  };
  const auto expect_same = [](const Run& got, const Run& want) {
    EXPECT_EQ(got.result.key, want.result.key);
    EXPECT_EQ(got.result.exact, want.result.exact);
    EXPECT_EQ(got.result.settled, want.result.settled);
    EXPECT_EQ(got.result.estimated_error, want.result.estimated_error);
    EXPECT_EQ(got.result.dip_iterations, want.result.dip_iterations);
    EXPECT_EQ(got.result.rounds, want.result.rounds);
    EXPECT_EQ(got.result.oracle_queries, want.result.oracle_queries);
  };

  Run first;
  std::vector<std::pair<BitVec, BitVec>> observations;
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    first = run(&session);
    SectionReader r = session.reader("cell.log");
    while (!r.at_end()) {
      BitVec x = store::get_bitvec(r);
      BitVec y = store::get_bitvec(r);
      observations.emplace_back(std::move(x), std::move(y));
    }
  }
  EXPECT_EQ(first.replayed, 0u);
  EXPECT_EQ(first.live, first.result.oracle_queries);
  ASSERT_EQ(observations.size(), first.result.oracle_queries);
  ASSERT_GT(first.result.dip_iterations, 0u);
  ASSERT_GT(first.result.oracle_queries, first.result.dip_iterations)
      << "the journal should hold settle-phase queries too";
  // Matches the run without a journal.
  expect_same(first, run(nullptr));

  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ASSERT_TRUE(session.resumed());
    const Run full = run(&session);
    expect_same(full, first);
    EXPECT_EQ(full.replayed, first.result.oracle_queries);
    EXPECT_EQ(full.live, 0u);
  }

  // A journal cut after k observations: k replay, the rest run live.
  const std::size_t k = observations.size() / 2;
  {
    store::CheckpointSession session(cut_file.path(), 7, "p", false);
    SectionWriter& w = session.section("cell.log");
    for (std::size_t i = 0; i < k; ++i) {
      store::put_bitvec(w, observations[i].first);
      store::put_bitvec(w, observations[i].second);
    }
    session.flush();
  }
  store::CheckpointSession session(cut_file.path(), 7, "p", true);
  ASSERT_TRUE(session.resumed());
  const Run resumed = run(&session);
  expect_same(resumed, first);
  EXPECT_EQ(resumed.replayed, k);
  EXPECT_EQ(resumed.live, first.result.oracle_queries - k);
}

TEST(AttackObservationJournal, DivergenceThrowsAndBooksTheMetric) {
  TempSnapshot file("attack_diverge");
  const circuit::Netlist netlist = circuit::c17();
  Rng lock_rng(1004);
  const lock::LockedCircuit recorded =
      lock::lock_random_xor(netlist, 4, lock_rng);
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    attack::CircuitOracle live = attack::CircuitOracle::from_netlist(netlist);
    store::AttackObservationJournal journal(live, &session, "cell.log", 2);
    ASSERT_TRUE(attack::sat_attack(recorded, journal.oracle()).success);
    session.flush();
  }

  // The same journal against other locked gates: the attack asks other DIPs.
  Rng other_rng(77);
  const lock::LockedCircuit other =
      lock::lock_random_xor(netlist, 4, other_rng);
  const std::uint64_t divergence0 = counter_value("store.snapshot.divergence");
  store::CheckpointSession session(file.path(), 7, "p", true);
  attack::CircuitOracle live = attack::CircuitOracle::from_netlist(netlist);
  store::AttackObservationJournal journal(live, &session, "cell.log", 2);
  EXPECT_THROW(attack::sat_attack(other, journal.oracle()),
               store::ReplayDivergenceError);
  EXPECT_EQ(counter_value("store.snapshot.divergence"), divergence0 + 1);
  EXPECT_EQ(live.queries(), 0u);
}

TEST(AttackObservationJournal, NullSessionForwardsEveryQueryAndWritesNothing) {
  const circuit::Netlist netlist = circuit::c17();
  Rng lock_rng(1004);
  const lock::LockedCircuit locked =
      lock::lock_random_xor(netlist, 4, lock_rng);
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  const std::uint64_t replayed0 =
      counter_value("store.snapshot.replayed_queries");

  attack::CircuitOracle live = attack::CircuitOracle::from_netlist(netlist);
  store::AttackObservationJournal journal(live, nullptr, "cell.log", 1);
  const attack::SatAttackResult result =
      attack::sat_attack(locked, journal.oracle());
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.oracle_queries, 0u);
  EXPECT_EQ(live.queries(), result.oracle_queries);
  EXPECT_EQ(journal.oracle().queries(), result.oracle_queries);
  EXPECT_EQ(journal.replayed(), 0u);
  EXPECT_EQ(counter_value("store.snapshot.writes"), writes0);
  EXPECT_EQ(counter_value("store.snapshot.replayed_queries"), replayed0);

  // Same answers as the bare oracle.
  attack::CircuitOracle bare = attack::CircuitOracle::from_netlist(netlist);
  const attack::SatAttackResult direct = attack::sat_attack(locked, bare);
  EXPECT_EQ(direct.key, result.key);
  EXPECT_EQ(direct.dip_iterations, result.dip_iterations);
  EXPECT_EQ(direct.oracle_queries, result.oracle_queries);
}

// -------------------------------------------------------------- termination

TEST(Termination, RequestFlagTriggersJournalFlush) {
  TempSnapshot file("term");
  Rng setup(23);
  const puf::ArbiterPuf target(8, 0.0, setup);
  store::clear_termination();
  const std::uint64_t writes0 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    // Cadence of 1000 would never flush on its own in 3 queries...
    store::RecordingOracle oracle(inner, &session, "u.log", 1000);
    (void)oracle.query_pm(make_bitvec(8, 1));
    EXPECT_EQ(counter_value("store.snapshot.writes"), writes0);
    store::request_termination();  // ...until the termination flag is up.
    (void)oracle.query_pm(make_bitvec(8, 2));
    EXPECT_GT(counter_value("store.snapshot.writes"), writes0);
  }
  store::clear_termination();
  {
    // The flushed journal is complete: both events replay.
    store::CheckpointSession session(file.path(), 7, "p", true);
    ml::FunctionMembershipOracle inner(target);
    store::RecordingOracle oracle(inner, &session, "u.log", 1000);
    (void)oracle.query_pm(make_bitvec(8, 1));
    (void)oracle.query_pm(make_bitvec(8, 2));
    EXPECT_EQ(oracle.replayed_queries(), 2u);
    EXPECT_EQ(inner.queries(), 0u);
  }

  // The attack-side journal flushes early on the same flag.
  TempSnapshot attack_file("term_attack");
  const auto answer = [](const BitVec& x) {
    return make_bitvec(2, x.get(0) ? 3 : 4);
  };
  const BitVec x1 = make_bitvec(8, 1);
  const BitVec x2 = make_bitvec(8, 2);
  const std::uint64_t writes1 = counter_value("store.snapshot.writes");
  {
    store::CheckpointSession session(attack_file.path(), 7, "p", true);
    attack::CircuitOracle live(answer);
    store::AttackObservationJournal journal(live, &session, "cell.log", 1000);
    (void)journal.oracle().query(x1);
    EXPECT_EQ(counter_value("store.snapshot.writes"), writes1);
    store::request_termination();
    (void)journal.oracle().query(x2);
    EXPECT_GT(counter_value("store.snapshot.writes"), writes1);
  }
  store::clear_termination();
  store::CheckpointSession session(attack_file.path(), 7, "p", true);
  attack::CircuitOracle live(answer);
  store::AttackObservationJournal journal(live, &session, "cell.log", 1000);
  EXPECT_EQ(journal.oracle().query(x1), answer(x1));
  EXPECT_EQ(journal.oracle().query(x2), answer(x2));
  EXPECT_EQ(journal.replayed(), 2u);
  EXPECT_EQ(live.queries(), 0u);
}

}  // namespace
