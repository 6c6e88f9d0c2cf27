#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string_view>

#include "core/registry.h"
#include "stats.h"

namespace goofi::bench {

namespace {

constexpr const char* kOpNames[kOpCount] = {
    "init_test_card",  "load_workload",      "write_memory",
    "run_workload",    "wait_for_breakpoint", "read_scan_chain",
    "inject_fault",    "write_scan_chain",   "wait_for_termination",
    "read_memory",     "restore_snapshot",   "capture_snapshot",
    "reference_run",   "run_experiment",     "wal_append",
    "wal_sync",
};

std::atomic<std::uint32_t> g_next_owner{1};

// "<campaign>/exp00042" -> 42; anything else (the reference run) -> -1.
std::int64_t ExperimentIndex(const std::string& name) {
  const std::size_t at = name.rfind("/exp");
  if (at == std::string::npos) return -1;
  std::int64_t index = 0;
  std::size_t digits = 0;
  for (std::size_t i = at + 4; i < name.size(); ++i, ++digits) {
    if (name[i] < '0' || name[i] > '9') return -1;
    index = index * 10 + (name[i] - '0');
  }
  return digits == 0 ? -1 : index;
}

class TracingWalFile : public db::wal::WalFile {
 public:
  TracingWalFile(std::unique_ptr<db::wal::WalFile> inner, bool replay)
      : inner_(std::move(inner)), replay_(replay) {}

  Status Append(std::string_view bytes) override {
    recorder_.Open(Op::kWalAppend, -1, replay_);
    const Status status = inner_->Append(bytes);
    recorder_.Close().amount = bytes.size();
    return status;
  }
  Status Sync() override {
    recorder_.Open(Op::kWalSync, -1, replay_);
    const Status status = inner_->Sync();
    recorder_.Close();
    return status;
  }

 private:
  std::unique_ptr<db::wal::WalFile> inner_;
  bool replay_;
  SpanRecorder recorder_;
};

std::vector<double> Micros(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (const std::int64_t value : ns) out.push_back(value / 1e3);
  return out;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

const char* OpName(Op op) { return kOpNames[static_cast<std::size_t>(op)]; }

std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next++;
  return id;
}

TraceStore& TraceStore::Instance() {
  static TraceStore* store = new TraceStore();
  return *store;
}

void TraceStore::Add(SpanBuffer buffer) {
  if (buffer.spans.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::move(buffer));
}

std::vector<SpanBuffer> TraceStore::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(buffers_);
}

SpanRecorder::SpanRecorder() {
  buffer_.owner = g_next_owner++;
  buffer_.creator_thread = ThreadId();
}

SpanRecorder::~SpanRecorder() {
  TraceStore::Instance().Add(std::move(buffer_));
}

void SpanRecorder::Open(Op op, std::int64_t experiment, bool replay) {
  Span span;
  span.op = op;
  span.experiment = experiment;
  span.thread = ThreadId();
  span.replay = replay;
  open_.emplace_back(buffer_.spans.size(), 0);
  buffer_.spans.push_back(span);
  buffer_.spans.back().start_ns = NowNs();
}

Span& SpanRecorder::Close() {
  const std::int64_t end = NowNs();
  const auto [index, child_ns] = open_.back();
  open_.pop_back();
  Span& span = buffer_.spans[index];
  span.end_ns = end;
  const std::int64_t duration = end - span.start_ns;
  span.self_ns = duration - child_ns;
  if (!open_.empty()) open_.back().second += duration;
  return span;
}

// ---- the traced target ---------------------------------------------------

Status TracedThorRdTarget::MakeReferenceRun() {
  return Traced(Op::kReferenceRun,
                [&] { return ThorRdTarget::MakeReferenceRun(); });
}

Status TracedThorRdTarget::RunExperiment() {
  const std::string& name = experiment().name;
  experiment_ = ExperimentIndex(name);
  if (experiment_ >= 0) {
    recorder_.set_campaign(name.substr(0, name.rfind("/exp")));
  }
  const std::uint64_t start_instret =
      start_snapshot() != nullptr ? start_snapshot()->instret : 0;
  const std::uint64_t link_before = test_card().link_stats().bytes_transferred;
  recorder_.Open(Op::kRunExperiment, experiment_);
  const Status status = ThorRdTarget::RunExperiment();
  Span& span = recorder_.Close();
  span.amount = observation().instructions > start_instret
                    ? observation().instructions - start_instret
                    : 0;
  span.link_bytes = test_card().link_stats().bytes_transferred - link_before;
  span.skipped = start_instret;
  experiment_ = -1;
  return status;
}

Result<sim::Snapshot> TracedThorRdTarget::CaptureSnapshot() {
  return Traced(Op::kCaptureSnapshot,
                [&] { return ThorRdTarget::CaptureSnapshot(); });
}

Status TracedThorRdTarget::RestoreSnapshot(const sim::Snapshot& snapshot) {
  return Traced(Op::kRestoreSnapshot,
                [&] { return ThorRdTarget::RestoreSnapshot(snapshot); });
}

Status TracedThorRdTarget::initTestCard() {
  return Traced(Op::kInitTestCard,
                [&] { return ThorRdTarget::initTestCard(); });
}
Status TracedThorRdTarget::loadWorkload() {
  return Traced(Op::kLoadWorkload,
                [&] { return ThorRdTarget::loadWorkload(); });
}
Status TracedThorRdTarget::writeMemory() {
  return Traced(Op::kWriteMemory, [&] { return ThorRdTarget::writeMemory(); });
}
Status TracedThorRdTarget::runWorkload() {
  return Traced(Op::kRunWorkload, [&] { return ThorRdTarget::runWorkload(); });
}
Status TracedThorRdTarget::waitForBreakpoint() {
  return Traced(Op::kWaitForBreakpoint,
                [&] { return ThorRdTarget::waitForBreakpoint(); });
}
Status TracedThorRdTarget::readScanChain() {
  return Traced(Op::kReadScanChain,
                [&] { return ThorRdTarget::readScanChain(); });
}
Status TracedThorRdTarget::injectFault() {
  return Traced(Op::kInjectFault, [&] { return ThorRdTarget::injectFault(); });
}
Status TracedThorRdTarget::writeScanChain() {
  return Traced(Op::kWriteScanChain,
                [&] { return ThorRdTarget::writeScanChain(); });
}
Status TracedThorRdTarget::waitForTermination() {
  return Traced(Op::kWaitForTermination,
                [&] { return ThorRdTarget::waitForTermination(); });
}
Status TracedThorRdTarget::readMemory() {
  return Traced(Op::kReadMemory, [&] { return ThorRdTarget::readMemory(); });
}

db::wal::WalFileFactory TracingWalFactory(bool replay) {
  return [replay](const std::string& path)
             -> Result<std::unique_ptr<db::wal::WalFile>> {
    ASSIGN_OR_RETURN(std::unique_ptr<db::wal::WalFile> inner,
                     db::wal::OpenLogFile(path));
    return std::unique_ptr<db::wal::WalFile>(
        new TracingWalFile(std::move(inner), replay));
  };
}

void InstallTracedTarget() {
  (void)core::TargetRegistry::Instance().Register("thor_rd", [] {
    return std::unique_ptr<target::TargetSystemInterface>(
        new TracedThorRdTarget());
  });
}

// ---- aggregation ---------------------------------------------------------

TraceReport Aggregate(const std::vector<SpanBuffer>& buffers,
                      const TraceTotals& totals) {
  TraceReport report;
  std::vector<std::int64_t> durations[kOpCount];
  std::int64_t self_total[kOpCount] = {};
  std::int64_t wait_ns = 0;
  std::uint64_t instructions = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t forks = 0;
  std::uint64_t wal_bytes = 0;
  std::int64_t target_self_ns = 0;
  std::int64_t outside_loops_ns = 0;  // target spans outside experiments
  std::int64_t loops_ns = 0;          // first to last experiment, per instance
  std::int64_t busy_ns = 0;
  std::vector<std::int64_t> gaps;

  // WAL spans of the run itself, per recording thread, for subtracting
  // the serial runner's in-loop logging from its experiment gaps.
  std::map<std::uint32_t, std::vector<const Span*>> run_wal_by_thread;
  for (const SpanBuffer& buffer : buffers) {
    for (const Span& span : buffer.spans) {
      ++report.spans;
      const auto op = static_cast<std::size_t>(span.op);
      if (op >= kTargetOpCount) {
        if (!span.replay) run_wal_by_thread[span.thread].push_back(&span);
        if (span.replay != totals.db_from_replay) continue;
        durations[op].push_back(span.end_ns - span.start_ns);
        self_total[op] += span.self_ns;
        if (span.op == Op::kWalAppend) wal_bytes += span.amount;
        continue;
      }
      durations[op].push_back(span.end_ns - span.start_ns);
      self_total[op] += span.self_ns;
      target_self_ns += span.self_ns;
      if (span.experiment < 0 && span.op != Op::kRunExperiment) {
        outside_loops_ns += span.self_ns;
      }
      if (span.experiment >= 0 && (span.op == Op::kWaitForBreakpoint ||
                                   span.op == Op::kWaitForTermination)) {
        wait_ns += span.self_ns;
      }
      if (span.op == Op::kRunExperiment) {
        instructions += span.amount;
        link_bytes += span.link_bytes;
        skipped += span.skipped;
        if (span.skipped > 0) ++forks;
      }
    }
  }
  for (auto& [thread, spans] : run_wal_by_thread) {
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
  }

  for (const SpanBuffer& buffer : buffers) {
    std::vector<const Span*> runs;
    for (const Span& span : buffer.spans) {
      if (span.op == Op::kRunExperiment) runs.push_back(&span);
    }
    if (runs.empty()) continue;
    std::sort(runs.begin(), runs.end(), [](const Span* a, const Span* b) {
      return a->start_ns < b->start_ns;
    });
    loops_ns += runs.back()->end_ns - runs.front()->start_ns;
    const auto wal = run_wal_by_thread.find(buffer.creator_thread);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      busy_ns += runs[i]->end_ns - runs[i]->start_ns;
      if (i == 0) continue;
      const std::int64_t lo = runs[i - 1]->end_ns;
      const std::int64_t hi = runs[i]->start_ns;
      std::int64_t gap = hi - lo;
      if (wal != run_wal_by_thread.end()) {
        for (const Span* db_span : wal->second) {
          if (db_span->start_ns >= hi) break;
          gap -= std::max<std::int64_t>(
              0, std::min(hi, db_span->end_ns) -
                     std::max(lo, db_span->start_ns));
        }
      }
      gaps.push_back(gap);
    }
  }

  auto& m = report.metrics;
  const double experiments = static_cast<double>(totals.experiments);
  for (std::size_t op = 0; op < kTargetOpCount; ++op) {
    const std::string prefix = std::string("target.") + kOpNames[op];
    m[prefix + ".calls_per_exp"] = {
        Ratio(static_cast<double>(durations[op].size()), experiments),
        "count"};
    m[prefix + ".share"] = {Ratio(static_cast<double>(self_total[op]),
                                  static_cast<double>(target_self_ns)),
                            "fraction"};
    m[prefix + ".self_us_per_exp"] = {
        Ratio(static_cast<double>(self_total[op]) / 1e3, experiments), "us"};
    const std::vector<double> micros = Micros(durations[op]);
    m[prefix + ".p50_us"] = {Median(micros), "us"};
    m[prefix + ".p99_us"] = {Quantile(micros, 0.99), "us"};
  }
  const double runs = static_cast<double>(
      durations[static_cast<std::size_t>(Op::kRunExperiment)].size());
  m["target.link_bytes_per_exp"] = {
      Ratio(static_cast<double>(link_bytes), runs), "B"};
  m["sim.ns_per_instr"] = {
      Ratio(static_cast<double>(wait_ns), static_cast<double>(instructions)),
      "ns"};
  m["sim.instructions_per_exp"] = {
      Ratio(static_cast<double>(instructions), runs), "count"};
  m["core.checkpoint_fork_share"] = {Ratio(static_cast<double>(forks), runs),
                                     "fraction"};
  m["core.instructions_skipped_per_exp"] = {
      Ratio(static_cast<double>(skipped), runs), "count"};

  const std::vector<double> gap_us = Micros(gaps);
  m["core.gap_us.p50"] = {Median(gap_us), "us"};
  m["core.gap_us.p99"] = {Quantile(gap_us, 0.99), "us"};
  const double loop_capacity_ns =
      1e9 * totals.loop_wall_s * static_cast<double>(totals.workers);
  m["core.worker_busy_share"] = {
      Ratio(static_cast<double>(busy_ns), loop_capacity_ns), "fraction"};
  report.reconcile_share = Ratio(
      static_cast<double>(loops_ns + outside_loops_ns), loop_capacity_ns);

  const auto append = static_cast<std::size_t>(Op::kWalAppend);
  const auto sync = static_cast<std::size_t>(Op::kWalSync);
  const double rows = totals.db_from_replay
                          ? static_cast<double>(totals.replay_rows)
                          : experiments;
  m["db.wal_append.calls_per_exp"] = {
      Ratio(static_cast<double>(durations[append].size()), rows), "count"};
  m["db.wal_append.bytes_per_exp"] = {
      Ratio(static_cast<double>(wal_bytes), rows), "B"};
  m["db.wal_append.us_per_exp"] = {
      Ratio(static_cast<double>(self_total[append]) / 1e3, rows), "us"};
  m["db.wal_sync.calls_per_exp"] = {
      Ratio(static_cast<double>(durations[sync].size()), rows), "count"};
  m["db.wal_sync.us_per_exp"] = {
      Ratio(static_cast<double>(self_total[sync]) / 1e3, rows), "us"};
  const std::vector<double> sync_us = Micros(durations[sync]);
  m["db.wal_sync.p50_us"] = {Median(sync_us), "us"};
  m["db.wal_sync.p99_us"] = {Quantile(sync_us, 0.99), "us"};
  return report;
}

std::int64_t FirstExperimentStart(const std::vector<SpanBuffer>& buffers,
                                  const std::string& campaign,
                                  std::int64_t from_ns) {
  std::int64_t first = -1;
  for (const SpanBuffer& buffer : buffers) {
    if (buffer.campaign != campaign) continue;
    for (const Span& span : buffer.spans) {
      if (span.op == Op::kRunExperiment && span.start_ns >= from_ns &&
          (first < 0 || span.start_ns < first)) {
        first = span.start_ns;
      }
    }
  }
  return first;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanBuffer>& buffers) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanBuffer& buffer : buffers) {
    for (const Span& span : buffer.spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fprintf(file, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const SpanBuffer& buffer : buffers) {
    for (const Span& span : buffer.spans) {
      const bool db = static_cast<std::size_t>(span.op) >= kTargetOpCount;
      // Target spans share their instance's track; log writes get one
      // track per writing thread.
      const std::uint64_t track =
          db ? 1000000ull + span.thread : buffer.owner;
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"experiment\": %lld, \"worker\": %u, "
                   "\"self_us\": %.3f}}",
                   first ? "" : ",\n", OpName(span.op),
                   db ? (span.replay ? "db_replay" : "db") : "target",
                   static_cast<unsigned long long>(track),
                   (span.start_ns - origin) / 1e3,
                   (span.end_ns - span.start_ns) / 1e3,
                   static_cast<long long>(span.experiment), buffer.owner,
                   span.self_ns / 1e3);
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace goofi::bench
