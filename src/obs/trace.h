// Deterministic event-trace ring: a flag-gated binary record of engine
// milestones (packet enqueue/drop/mark/deliver, subscribe/unsubscribe, grace
// open/close, probation record/inherit/refuse, slot feedback, cutoffs).
//
// Determinism contract: recording consumes zero PRNG draws and perturbs no
// simulation behaviour — a hook appends a POD record to a pre-existing
// buffer and nothing else, so all golden digests are bit-identical with
// tracing on or off (pinned by golden_trace_test).
//
// Threading model: the active buffer is a thread_local pointer installed by
// trace_scope around one sweep point's world build + run. Each grid point
// records into its own buffer, so every `--jobs N` run produces
// byte-identical per-row blobs (merged in row order by
// exp::write_outputs). Engine components capture current_trace() at
// construction time — when tracing is off the captured pointer is null and
// every hook is one predicted-not-taken branch.
//
// `tools/trace2perfetto.py` converts the serialized file to Chrome/Perfetto
// trace-viewer JSON with one track per router interface and per link.
#ifndef MCC_OBS_TRACE_H
#define MCC_OBS_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mcc::obs {

/// Engine milestones. Values are part of the on-disk format (see
/// docs/observability.md and tools/trace2perfetto.py); append only.
enum class trace_event : std::uint16_t {
  packet_enqueue = 1,
  packet_drop = 2,
  packet_mark = 3,
  packet_deliver = 4,
  subscribe = 5,
  unsubscribe = 6,
  session_join = 7,
  grace_open = 8,
  grace_close = 9,
  probation_record = 10,
  probation_inherit = 11,
  probation_refuse = 12,
  slot_feedback = 13,
  cutoff = 14,
  /// A shared-congestion-manager cap bound a receiver's upgrade authority:
  /// a = the evaluated slot, b = the cap level applied.
  cm_cap = 15,
};

[[nodiscard]] const char* trace_event_name(trace_event e);

/// One fixed-width trace record: timestamp, interned track, event kind, and
/// two event-specific payload words (documented per kind in
/// docs/observability.md).
struct trace_record {
  std::int64_t t = 0;          // simulated time, ns
  std::uint32_t track = 0;     // index into the buffer's track table
  std::uint16_t kind = 0;      // trace_event
  std::uint16_t reserved = 0;  // zero; keeps the record 8-byte aligned
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};
static_assert(sizeof(trace_record) == 32, "on-disk record layout");

/// An append-only event buffer with an interned track-name table. One buffer
/// per sweep point; cheap enough to exist unconditionally (hooks check the
/// thread-local pointer, not the buffer).
class trace_buffer {
 public:
  /// Interns a track name; the same name always maps to the same id.
  std::uint32_t track(const std::string& name);

  void record(std::int64_t t, trace_event kind, std::uint32_t track,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    records_.push_back(trace_record{
        t, track, static_cast<std::uint16_t>(kind), 0, a, b});
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] const std::vector<trace_record>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<std::string>& tracks() const {
    return tracks_;
  }

  /// Serializes to one self-contained binary segment: track table + records
  /// (docs/observability.md has the layout). Segments concatenate into the
  /// `--trace` file byte-identically regardless of worker scheduling.
  [[nodiscard]] std::string serialize() const;

 private:
  std::vector<std::string> tracks_;
  std::map<std::string, std::uint32_t> by_name_;
  std::vector<trace_record> records_;
};

/// The calling thread's active buffer; null when tracing is off (the
/// default). Engine components capture this once at construction.
[[nodiscard]] trace_buffer* current_trace();

/// RAII installer for the thread-local active buffer. Pass nullptr for an
/// explicit no-trace scope; the previous buffer is restored on destruction,
/// so nested scopes (a testbed built inside a traced sweep point) compose.
class trace_scope {
 public:
  explicit trace_scope(trace_buffer* buf);
  trace_scope(const trace_scope&) = delete;
  trace_scope& operator=(const trace_scope&) = delete;
  ~trace_scope();

 private:
  trace_buffer* prev_;
};

}  // namespace mcc::obs

#endif  // MCC_OBS_TRACE_H
