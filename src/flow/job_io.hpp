// Text serialization of the ExperimentRunner job model — the wire format
// of the distributed runner (docs/distributed.md).
//
// Jobs travel as a *manifest* and come back as *results* (format v1),
// both line-oriented text so they can be shipped between machines and
// diffed by eye. A DistributedRunner parent and its hlp_worker processes
// exchange them wrapped in per-unit frames (protocol v2, below);
// `hlp_store gc --keep-manifest` reads a manifest file.
//
// Properties the distributed protocol depends on:
//  - Round trips are exact. Doubles are serialised in hexfloat (parsed
//    with strtod), so a value survives the trip bit for bit — the
//    distributed==threaded property test compares results to the last
//    bit. Strings (benchmark names, labels, error messages) are
//    percent-escaped and may contain any byte.
//  - Truncation is detectable. Both formats end in an `end <magic> <count>`
//    footer; input cut short by a crashed or killed worker fails to load
//    with a clear error instead of silently dropping records.
//  - Errors say where. A malformed input throws hlp::Error reading
//    "<source>: line N: <defect>", the source being the file path for
//    load_manifest_file and the format's name for streams.
//  - Records carry the job's index in the parent's grid, so the parent
//    merges worker outputs deterministically (stable job order) no matter
//    which worker ran which unit or finished first.
//
// One outcome field is intentionally NOT carried: the mapped LUT netlist
// structure (FlowResult::mapped.lut_netlist), which is a large
// intermediate artifact; its summary (num_luts, depth) and every metric
// derived from it (timing, toggles, power) are. `same_outcome` is the
// single definition of result equality used by tests and benches.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "flow/experiment.hpp"

namespace hlp::flow {

/// A job tagged with its position in the parent's grid.
struct ManifestJob {
  std::size_t index = 0;
  Job job;
};

/// A result tagged with the manifest index it answers.
struct ManifestResult {
  std::size_t index = 0;
  JobResult result;
};

/// Percent-escape (%XX) every byte that would break whitespace-delimited
/// parsing: whitespace, '%', and non-printable bytes. Decode inverts
/// exactly; decode of a malformed escape throws.
std::string encode_token(const std::string& s);
std::string decode_token(const std::string& s);

/// Manifest: "manifest v1" header, one `job` line per entry, `end` footer.
void save_manifest(std::ostream& os, const std::vector<ManifestJob>& jobs);
std::vector<ManifestJob> load_manifest(std::istream& is);
std::vector<ManifestJob> load_manifest_file(const std::string& path);

/// Results: "results v1" header, one multi-line `result..endresult` record
/// per entry, `end` footer. Load is strict: a missing footer, an
/// unterminated record or a malformed line throws hlp::Error naming the
/// defect (this is how a parent detects a worker that died mid-write).
void save_results(std::ostream& os, const std::vector<ManifestResult>& results);
std::vector<ManifestResult> load_results(std::istream& is);

/// ---- streaming protocol v2 ----------------------------------------------
///
/// The DistributedRunner parent and each long-lived hlp_worker process
/// exchange framed per-unit records over stdin/stdout. A request frame
/// wraps one work unit (a whole seed-coalescing chunk) in the v1 manifest
/// format; a response frame wraps the unit's results in the v1 results
/// format. Both reuse the hexfloat / percent-escape / footer
/// conventions, and add an `endunit <id>` trailer so a frame cut short by
/// a dying worker is detectable at the frame level too: the parent only
/// parses byte ranges that end in a complete trailer line, and a
/// truncated body still throws through the inner v1 loader.
///
///   unit <id>                      unitdone <id>
///   hlp-manifest v1                hlp-results v1
///   count K                        count K
///   job index=... ...              result index=... ... endresult
///   end hlp-manifest K             end hlp-results K
///   endunit <id>                   endunit <id>
///
/// The request stream ends with a single `quit` line (or EOF), upon which
/// the worker flushes its SA shard once and exits 0.

/// One parsed request frame. `quit` is set (and the rest empty) when the
/// stream ended or an explicit `quit` line arrived.
struct UnitRequest {
  bool quit = false;
  std::size_t id = 0;
  std::vector<ManifestJob> jobs;
};

/// One parsed response frame: the results of unit `id`.
struct UnitResponse {
  std::size_t id = 0;
  std::vector<ManifestResult> results;
};

void save_unit_request(std::ostream& os, std::size_t id,
                       const std::vector<ManifestJob>& jobs);
void save_unit_quit(std::ostream& os);
/// Blocking read of the next request frame (the worker's serve loop reads
/// straight from stdin). EOF before any frame content = quit; a malformed
/// or truncated frame throws hlp::Error.
UnitRequest load_unit_request(std::istream& is);

void save_unit_response(std::ostream& os, std::size_t id,
                        const std::vector<ManifestResult>& results);
/// Strict parse of one response frame (the parent calls this on a byte
/// range it already knows ends in an `endunit` trailer): a missing or
/// mismatched trailer, a truncated body or a malformed record throws.
UnitResponse load_unit_response(std::istream& is);

/// Result equality over every serialised field EXCEPT execution metadata
/// (seconds, per-stage timings, group_size, cached_stages — wall clock and
/// batching shape legitimately differ between a threaded run and a
/// sharded run). This is the "bit-identical JobResult" relation of the
/// distributed acceptance test: job fields, ok/error, the binding, mux
/// stats, map summary, clock period, per-net toggle counts, sim counters
/// and the power report must all agree exactly (doubles to the last bit).
bool same_outcome(const JobResult& a, const JobResult& b);

}  // namespace hlp::flow
