// Content-addressed on-disk artifact store — the persistent tier under
// the in-memory StageCache (ROADMAP: "Persistent cross-run artifact store
// + incremental exploration").
//
// A StageCache entry (the bind-fus..time artifacts of one binding) is
// keyed in memory by FlowContext::binding_hash(). That key is exact but
// scoped to one context; to share entries across processes, sessions and
// machines the store widens it into an ArtifactKey:
//
//   scope    — the context's identity: the runner's context_key plus a
//              structural digest of the CDFG, so two providers that reuse
//              a benchmark name for different graphs can never alias;
//   binding  — FlowContext::binding_hash() verbatim (scheduler, resolved
//              rc, width, reg_seed, SA mode, binder knobs in hexfloat,
//              map + timing parameters);
//   sa/simd  — the mode tags of the runner's group keys: the resolved SA
//              backend and the *requested* simd mode, recorded so a warm
//              hit can prove it was produced under the same configuration
//              axes the runner groups by.
//
// One entry = one file, `objects/<fnv1a64(key)>.art`, in a line-oriented
// text format that follows the flow/job_io manifest conventions:
// hexfloat doubles (bit-exact round trips), percent-escaped strings, a
// `hlp-artifact v2` magic header and an `end hlp-artifact <count>` footer
// so truncation is detectable, plus an FNV-1a checksum over the payload
// so bit flips are too. The payload carries the FULL mapped and datapath
// netlists — the whole point is skipping elaborate/map/time.
//
// Durability contract:
//   - Commits are atomic: entries are serialised into a per-process
//     staging directory and std::rename()d into objects/, so a reader
//     never observes a half-written entry and a SIGKILLed writer leaves
//     only staging litter, never a corrupt object.
//   - find() is lenient: a missing entry is a miss; an entry that fails
//     ANY validation (truncated, bit-flipped, wrong magic/footer, mode-tag
//     or key mismatch) is rejected and reported as a miss — corruption
//     degrades a warm run to a cold one, it never poisons it.
//   - publish() and merge_from() are overlap-must-agree: an existing
//     valid entry with the same key must match the incoming bytes exactly
//     (every producer is deterministic, so a mismatch means two
//     incompatible configurations share a store — an error, not a race);
//     an existing *invalid* entry is repaired by overwrite; a 64-bit
//     address collision between distinct keys keeps the first owner.
//
// Thread- and process-safe: many runners, threads and processes may
// share one store directory (each handle stages under its
// own staging/p<pid>-<n>/ dir). See docs/artifact-store.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"

namespace hlp::store {

/// Identity of one stored artifact. `full()` is the exact string the
/// content address hashes — every field the bind-fus..time stages (or the
/// runner's grouping) depend on is serialised in it, none digested.
struct ArtifactKey {
  std::string scope;    // context identity (runner key + CDFG digest)
  std::string binding;  // FlowContext::binding_hash()
  std::string sa;       // resolved SA mode name (sa_mode_name)
  std::string simd;     // requested simd mode name (simd_mode_name)

  std::string full() const;
  friend bool operator==(const ArtifactKey&, const ArtifactKey&) = default;
};

/// One parsed artifact file: the key it recorded plus the entry payload.
struct LoadedArtifact {
  ArtifactKey key;
  flow::StageCache::Entry entry;
};

/// One committed object as enumerate() reports it — identity and age
/// metadata only, no parse. The age is derived from the object's mtime,
/// which the atomic write-then-rename commit preserves from the staged
/// write, so it reflects when the entry was (re)computed, not renamed.
struct ObjectInfo {
  std::string path;            // absolute object path
  std::string address;         // 16-hex content address (the filename stem)
  std::uintmax_t bytes = 0;    // file size
  std::int64_t age_seconds = 0;  // now - mtime, clamped at 0
};

/// What fsck() found (and, in repair mode, did).
struct FsckReport {
  std::size_t scanned = 0;   // .art objects examined
  std::size_t valid = 0;     // passed strict parse + address check
  /// One "<path>: <defect>" line per object that failed validation.
  std::vector<std::string> rejected;
  std::size_t repaired = 0;         // invalid objects removed (repair mode)
  std::size_t staging_removed = 0;  // stale staging dirs swept (repair mode)

  bool clean() const { return rejected.empty(); }
};

/// What gc() keeps and drops. Filters compose as keeps: an object
/// survives iff it parses, is referenced (when `live_addresses` is set)
/// AND is young enough (when `max_age_seconds` is set). Invalid objects
/// never survive a gc — fsck reports them, gc collects them.
struct GcOptions {
  /// Drop referenced-but-older-than-this objects; negative = no age limit.
  std::int64_t max_age_seconds = -1;
  /// Keep only objects whose content address is in this set (e.g. the
  /// addresses a manifest's jobs map to); unset = everything is live.
  std::optional<std::set<std::string>> live_addresses;
  /// Report what would be dropped without touching the store.
  bool dry_run = false;
};

struct GcReport {
  std::size_t scanned = 0;
  std::size_t kept = 0;
  std::size_t dropped_unreferenced = 0;  // not in live_addresses
  std::size_t dropped_aged = 0;          // referenced but past max_age
  std::size_t dropped_invalid = 0;       // failed validation
  std::size_t staging_removed = 0;       // stale staging dirs swept
};

class ArtifactStore {
 public:
  using Entry = flow::StageCache::Entry;

  /// Opens (creating if needed) the store rooted at `root`: entries live
  /// in `<root>/objects/`, this handle stages its writes under
  /// `<root>/staging/p<pid>-<n>/`. Throws hlp::Error when the directories
  /// cannot be created (e.g. the root is a file).
  explicit ArtifactStore(const std::string& root);
  /// Best-effort removal of this handle's staging directory.
  ~ArtifactStore();

  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  const std::string& root() const { return root_; }

  /// Lenient probe: the entry for `key`, or null. A missing file counts a
  /// miss; a file that fails strict validation counts a rejection (and
  /// returns null) — corruption can cost a recompute, never an error.
  std::shared_ptr<const Entry> find(const ArtifactKey& key);

  /// Strict load: throws hlp::Error naming the defect on a missing file,
  /// truncation, checksum mismatch, wrong magic/footer, malformed payload
  /// or a recorded key/mode-tag that disagrees with `key`.
  std::shared_ptr<const Entry> load_strict(const ArtifactKey& key) const;

  /// Publish the entry for `key` (atomic write-then-rename).
  /// Overlap-must-agree: an existing valid entry for the same key must
  /// equal the incoming bytes exactly or this throws; an existing invalid
  /// entry is overwritten; an address collision with a different key
  /// keeps the existing entry.
  void publish(const ArtifactKey& key, const Entry& entry);

  /// Merge every entry of the store rooted at `other_root` into this one
  /// with publish()'s overlap-must-agree semantics. Strict: every source
  /// entry is validated (content address included) BEFORE anything is
  /// written, so a corrupt source or
  /// a conflict rejects the merge without partial state. Returns the
  /// number of newly inserted entries.
  std::size_t merge_from(const std::string& other_root);

  /// Committed objects on disk right now (valid or not).
  std::size_t size() const;

  /// Every committed object with its age metadata, sorted by content
  /// address — deterministic regardless of directory iteration order. No
  /// parse happens here; invalid objects are listed like valid ones.
  std::vector<ObjectInfo> enumerate() const;

  /// Validate every object via the strict parse (structure, checksum,
  /// footer, netlists) plus the filename-matches-content-address check
  /// that catches renamed or planted files. With `repair` set, invalid
  /// objects are deleted (the next probe recomputes them — the store's
  /// corruption contract) and stale staging directories left by dead
  /// writers are swept. Never touches valid objects.
  FsckReport fsck(bool repair);

  /// Drop objects per GcOptions (see its comment for the keep rule).
  /// Always sweeps stale staging directories unless dry_run. Safe against
  /// concurrent readers: a dropped object is a plain unlink, which a
  /// racing find() observes as a miss.
  GcReport gc(const GcOptions& opt);

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  /// Entries that existed but failed validation in find().
  std::uint64_t rejected() const { return rejected_.load(); }
  /// Entries this handle committed (first writes + repairs, not no-ops).
  std::uint64_t publishes() const { return publishes_.load(); }

  /// `<root>/objects/<content_address(key)>.art`.
  std::string object_path(const ArtifactKey& key) const;
  /// FNV-1a 64 of key.full(), as 16 hex digits.
  static std::string content_address(const ArtifactKey& key);

  /// The exact bytes publish() commits for (key, entry) — exposed so
  /// tests can assert byte-level convergence and craft corrupt files.
  static std::string serialize(const ArtifactKey& key, const Entry& entry);
  /// Strict parse of serialize()'s output; `what` names the source in
  /// errors. Validates structure, magic, footer, checksum and both
  /// netlists, not the key (callers cross-check against their request).
  static LoadedArtifact parse(const std::string& bytes,
                              const std::string& what);

 private:
  void write_object(const std::string& path, const std::string& bytes);
  /// Remove staging dirs whose writer is provably gone (never our own).
  std::size_t sweep_stale_staging();

  std::string root_;
  std::string objects_;
  std::string staging_;
  std::atomic<std::uint64_t> tmp_seq_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> publishes_{0};
};

}  // namespace hlp::store
