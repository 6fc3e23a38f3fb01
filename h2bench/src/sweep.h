// sweep-fig2b and sweep-nopush: closed, serial simulation sweeps.
//
// A random100-profile population is replayed under two arms per site, one
// load per site and arm, on one thread, with no run cache. The population
// is built and replayed chunk by chunk, so it can be large enough for its
// tail (the p99 load) to be steady from seed to seed while only one chunk
// of sites is held in memory. Every load repeats once per pass over the
// population, and every repeat must reproduce its first result bit for
// bit. The digest over all loads is checked against the digest recorded
// for the seed.
#pragma once

#include <cstdint>

#include "report.h"

namespace h2bench {

inline constexpr int kSweepSites = 960;
inline constexpr int kSweepChunkSites = 160;

/// The two arms every site is loaded under.
enum class SweepArms {
  kFig2b,    ///< sweep-fig2b: push_recorded and no_push (paper Fig. 2b)
  kNoPush,  ///< sweep-nopush: no_push at run indices 0 and 1 — the request
            ///< path alone, which push-path changes must leave flat
};

/// The workload name of a sweep ("sweep-fig2b", "sweep-nopush").
const char* sweep_name(SweepArms arms);

Report run_sweep(const Options& options, SweepArms arms);

/// Digest of one pass over the first `sites` sites of the population of
/// `seed`, with the loads and order the workload uses.
std::uint64_t sweep_digest(SweepArms arms, std::uint64_t seed,
                           int sites = kSweepSites);

}  // namespace h2bench
