// Deterministic multi-job scheduler for the serve plane — DESIGN.md §16.
//
// A wave is a batch of submitted jobs executed concurrently over the
// support/parallel worker pool via parallel_for_tasks (one task per job —
// jobs are coarse and heterogeneous, exactly the workload that primitive
// exists for). Determinism is the §6 contract applied at job granularity:
//
//   * every job derives its private RNG stream from its own spec seed
//     (rng_for_chunk over a serve-specific salt), never from the executing
//     thread or the submission order of *other* jobs;
//   * each worker writes only its own result slot (out[index] = ...);
//   * the daemon emits finished blocks strictly in submission order.
//
// The concatenated output of a wave is therefore byte-identical for every
// PITFALLS_THREADS value — the property tests/serve_test.cpp pins at
// 1/2/4/8 threads and scripts/serve_smoke.sh re-checks end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/token_fleet.hpp"

namespace pitfalls::serve {

/// One job's complete wire output: its obs line followed by its outcome
/// line, or a single error line when the job failed validation/execution.
struct JobResult {
  std::vector<std::string> lines;
  bool ok = false;
};

class JobScheduler {
 public:
  /// `fleet` must outlive the scheduler. `checkpoint_path` empty disables
  /// oracle sessions (an attack naming one fails); otherwise each session
  /// journals next to the daemon checkpoint as
  /// "<checkpoint_path>.sess-<name>.snap".
  JobScheduler(TokenFleet& fleet, std::string checkpoint_path);

  /// Execute one job to completion on the calling thread. Never throws:
  /// any failure becomes the job's error line.
  JobResult run_job(const JobSpec& spec) const;

  /// Execute a wave over the worker pool. `skip[i]` true leaves `out[i]`
  /// untouched (the daemon pre-fills journaled blocks there); all other
  /// slots are overwritten. out/skip must both have specs.size() entries.
  void run_wave(const std::vector<JobSpec>& specs,
                const std::vector<char>& skip,
                std::vector<JobResult>& out) const;

 private:
  TokenFleet* fleet_;
  std::string checkpoint_path_;
};

}  // namespace pitfalls::serve
