// Shared export-format plumbing for the obs file writers.
//
// Every exporter in this module picks its on-disk format from the output
// path's suffix (".csv" -> CSV, ".jsonl" -> JSON lines, anything else ->
// the writer's default).  The suffix match used to be re-implemented,
// case-sensitively, in each writer; this header is the one shared,
// case-insensitive implementation, used by write_trace_file,
// write_metrics_file and write_series_file alike (the drivers' flag help
// that states the rule lives with the flags, in tools/session).
#pragma once

#include <string_view>

namespace p2plb::obs {

/// True iff `path` ends in `extension` (e.g. ".csv"), compared
/// case-insensitively, so "METRICS.CSV" and "metrics.csv" pick the same
/// format.  `extension` must include the leading dot.
[[nodiscard]] bool path_has_extension(std::string_view path,
                                      std::string_view extension) noexcept;

}  // namespace p2plb::obs
