// Text serialization of the ExperimentRunner job model.
//
// A job grid travels as a *manifest*: line-oriented text that can be
// diffed by eye and read back exactly. `hlp_store gc --keep-manifest`
// reads one to learn which store entries are live. The artifact store
// reuses the token escaping below for the strings it persists.
//
// Properties the format keeps:
//  - Round trips are exact. Doubles are written in hexfloat (parsed with
//    strtod), so a value survives the trip bit for bit. Strings
//    (benchmark names, labels) are percent-escaped and may contain any
//    byte.
//  - Truncation is detectable. A manifest ends in an
//    `end hlp-manifest <count>` footer; input cut short fails to load
//    with a clear error instead of silently dropping jobs.
//  - Errors say where. A malformed input throws hlp::Error reading
//    "<source>: line N: <defect>", the source being the file path for
//    load_manifest_file and "manifest" for streams.
//
// `same_outcome` is the single definition of result equality used by
// tests and benches.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace hlp::flow {

/// A job tagged with its position in the grid it came from.
struct ManifestJob {
  std::size_t index = 0;
  Job job;
};

/// Percent-escape (%XX) every byte that would break whitespace-delimited
/// parsing: whitespace, '%', and non-printable bytes. Decode inverts
/// exactly; decode of a malformed escape throws.
std::string encode_token(const std::string& s);
std::string decode_token(const std::string& s);

/// Manifest: "hlp-manifest v1" header, a count line, one `job` line per
/// entry, `end` footer. Load is strict: a missing footer or a malformed
/// line throws hlp::Error naming the defect.
void save_manifest(std::ostream& os, const std::vector<ManifestJob>& jobs);
std::vector<ManifestJob> load_manifest(std::istream& is);
std::vector<ManifestJob> load_manifest_file(const std::string& path);

/// Result equality over every outcome field EXCEPT execution metadata
/// (seconds, per-stage timings, group_size, cached_stages — wall clock,
/// batching shape and cache hits legitimately differ between two runs of
/// one job): ok/error, the binding, refine summary, mux stats, map summary,
/// clock period, per-net toggle counts, sim counters and the power report
/// must all agree exactly (doubles to the last bit).
bool same_outcome(const JobResult& a, const JobResult& b);

}  // namespace hlp::flow
