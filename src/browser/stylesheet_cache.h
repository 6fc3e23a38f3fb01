// Process-wide cache of parsed stylesheets.
//
// Every load of a site fetches the same stylesheets, and their text never
// changes, so the renderer parses each distinct sheet once and shares the
// result read-only. Entries are keyed by the sheet's full text (equal
// bytes, one entry) and bounded by kSharedStylesheetEntries, least recently
// used out first. A sheet is immutable once parsed, and an evicted entry
// stays alive for as long as any holder keeps its pointer.
//
// Threads that ask for a sheet another thread is still parsing wait for
// that parse instead of repeating it, so ParallelRunner threads starting a
// site together parse each of its sheets once between them.
//
// parse_css itself stays pure and uncached; this is the only cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "browser/css.h"

namespace h2push::browser {

/// Entry bound of the shared cache. It has to hold the sheets of the site
/// being loaded: every sweep replays a site's loads back to back, and
/// ParallelRunner fans the runs of one site across its threads and finishes
/// them before the next site starts, so the live set is one site's sheets
/// at any job count. The random100 population averages 3.5 distinct sheets
/// per site, and no site in it outgrows the bound (DESIGN.md §5c).
inline constexpr std::size_t kSharedStylesheetEntries = 16;

/// The parsed form of `text`, from the shared cache (parsed on a miss).
/// Thread-safe; the parse itself runs outside the cache's lock.
std::shared_ptr<const Stylesheet> shared_stylesheet(std::string_view text);

struct SharedStylesheetStats {
  std::size_t entries = 0;   ///< entries currently held
  std::uint64_t lookups = 0;  ///< shared_stylesheet() calls so far
  std::uint64_t parses = 0;   ///< of those, the ones that ran parse_css
};

/// Counters of the shared cache since the process started.
SharedStylesheetStats shared_stylesheet_stats();

}  // namespace h2push::browser
