// Outside-in tracing for the campaign benchmark.
//
// Nothing in the library is instrumented. Spans are recorded at the
// layers' public or virtual entry points, from the benchmark's side:
//
//   * TracedThorRdTarget overrides every Fig. 3 operation of the Thor RD
//     target (plus RunExperiment, MakeReferenceRun and the snapshot
//     pair) and forwards to the base class. Registered under "thor_rd"
//     in the process-wide target registry, it is what goofi_tool's
//     target wiring and goofi_serve's executor mint.
//   * TracingWalFactory wraps wal::OpenLogFile for Database::AttachWal /
//     Database::Open and times every log append and sync.
//
// Spans live in memory, in one buffer per target instance or log file,
// and are handed to the process-wide TraceStore when their owner dies.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "db/wal.h"
#include "stats.h"
#include "target/thor_rd_target.h"

namespace goofi::bench {

enum class Op : std::uint8_t {
  kInitTestCard,
  kLoadWorkload,
  kWriteMemory,
  kRunWorkload,
  kWaitForBreakpoint,
  kReadScanChain,
  kInjectFault,
  kWriteScanChain,
  kWaitForTermination,
  kReadMemory,
  kRestoreSnapshot,
  kCaptureSnapshot,
  kReferenceRun,
  kRunExperiment,
  kWalAppend,
  kWalSync,
};
// kInitTestCard..kRunExperiment are target spans; the rest are WAL spans.
inline constexpr std::size_t kTargetOpCount = 14;
inline constexpr std::size_t kOpCount = 16;

const char* OpName(Op op);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;     // duration minus the child spans
  std::int64_t experiment = -1; // plan index; -1 outside experiments
  // run_experiment: simulated instructions executed (a fork skips the
  // checkpoint's prefix); wal_append: bytes appended.
  std::uint64_t amount = 0;
  std::uint64_t link_bytes = 0;  // run_experiment: test-card link bytes
  // run_experiment: instructions a checkpoint fork did not replay.
  std::uint64_t skipped = 0;
  std::uint32_t thread = 0;      // ThreadId() of the recording thread
  Op op = Op::kRunExperiment;
  bool replay = false;  // WAL spans of the benchmark's own replay pass
};

// A small dense id for the calling thread (1, 2, ...).
std::uint32_t ThreadId();

// One span buffer: a target instance's or a log file's.
struct SpanBuffer {
  std::uint32_t owner = 0;           // instance id (0 for log files)
  std::uint32_t creator_thread = 0;  // the thread that created the owner
  std::string campaign;  // the campaign whose experiments the instance ran
  std::vector<Span> spans;
};

class TraceStore {
 public:
  static TraceStore& Instance();
  void Add(SpanBuffer buffer);
  // Everything recorded so far; the store is left empty.
  std::vector<SpanBuffer> Take();

 private:
  std::mutex mutex_;
  std::vector<SpanBuffer> buffers_;
};

// Nested span bookkeeping for one buffer (one thread at a time).
class SpanRecorder {
 public:
  SpanRecorder();
  ~SpanRecorder();  // hands the buffer to the TraceStore
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Open(Op op, std::int64_t experiment, bool replay = false);
  Span& Close();
  void set_campaign(std::string campaign) {
    buffer_.campaign = std::move(campaign);
  }

 private:
  SpanBuffer buffer_;
  std::vector<std::pair<std::size_t, std::int64_t>> open_;  // index, child ns
};

class TracedThorRdTarget : public target::ThorRdTarget {
 public:
  Status MakeReferenceRun() override;
  Status RunExperiment() override;
  Result<sim::Snapshot> CaptureSnapshot() override;
  Status RestoreSnapshot(const sim::Snapshot& snapshot) override;

 protected:
  Status initTestCard() override;
  Status loadWorkload() override;
  Status writeMemory() override;
  Status runWorkload() override;
  Status waitForBreakpoint() override;
  Status readScanChain() override;
  Status injectFault() override;
  Status writeScanChain() override;
  Status waitForTermination() override;
  Status readMemory() override;

 private:
  template <typename Body>
  auto Traced(Op op, Body&& body) {
    recorder_.Open(op, experiment_);
    auto result = body();
    recorder_.Close();
    return result;
  }

  SpanRecorder recorder_;
  std::int64_t experiment_ = -1;
};

// Log files whose appends and syncs are recorded; `replay` marks the
// benchmark's own post-pass so its spans stay apart from the run's.
db::wal::WalFileFactory TracingWalFactory(bool replay = false);

// Register TracedThorRdTarget as "thor_rd" in the target registry. Must
// run before anything registers the built-in targets.
void InstallTracedTarget();

// ---- aggregation --------------------------------------------------------

struct TraceTotals {
  std::size_t experiments = 0;  // experiments logged by the measured runs
  double loop_wall_s = 0.0;     // wall time of the measured runs
  std::size_t workers = 1;      // experiment loops running side by side
  // Use the replay pass's WAL spans for the db.* metrics (the run's own
  // log files could not be wrapped), normalized by the rows it logged.
  bool db_from_replay = false;
  std::size_t replay_rows = 0;
};

struct TraceReport {
  std::map<std::string, Metric> metrics;  // per-layer metrics
  // Span self times plus core.gap, as a share of workers x loop wall.
  double reconcile_share = 0.0;
  std::size_t spans = 0;
};

TraceReport Aggregate(const std::vector<SpanBuffer>& buffers,
                      const TraceTotals& totals);

// When the first experiment of `campaign` that started at or after
// `from_ns` started (NowNs() clock), or -1 if none did.
std::int64_t FirstExperimentStart(const std::vector<SpanBuffer>& buffers,
                                  const std::string& campaign,
                                  std::int64_t from_ns);

// Chrome trace-event JSON ("X" events, one track per target instance).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanBuffer>& buffers);

}  // namespace goofi::bench
