#include "service/server.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>

#include "service/executor.h"
#include "service/protocol.h"
#include "util/strings.h"

namespace goofi::service {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// ServiceCore
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ServiceCore>> ServiceCore::Start(
    ServiceConfig config) {
  if (config.fleet_workers == 0) {
    return InvalidArgumentError("fleet_workers must be >= 1");
  }
  if (config.max_campaign_jobs == 0 ||
      config.max_campaign_jobs > config.fleet_workers) {
    return InvalidArgumentError(
        "max_campaign_jobs must be in [1, fleet_workers]");
  }
  std::error_code ec;
  fs::create_directories(fs::path(config.root) / "campaigns", ec);
  if (ec) {
    return IoError("cannot create service root '" + config.root + "'");
  }
  // Single-instance lock before touching the journal or the socket: two
  // daemons on one root would double-execute submissions and corrupt
  // the WAL. flock is owned by the open file description, so it
  // vanishes on any exit, kill -9 included.
  const std::string lock_path = (fs::path(config.root) / "lock").string();
  const int lock_fd =
      ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd < 0) {
    return IoError("cannot open '" + lock_path + "'");
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    const int saved = errno;
    ::close(lock_fd);
    if (saved == EWOULDBLOCK) {
      return AlreadyExistsError("another goofi_serve already owns '" +
                                config.root + "'");
    }
    return IoError("cannot lock '" + lock_path + "'");
  }
  std::unique_ptr<ServiceCore> core(new ServiceCore(std::move(config)));
  core->lock_fd_ = lock_fd;
  ASSIGN_OR_RETURN(
      SubmissionJournal journal,
      SubmissionJournal::Open(
          (fs::path(core->config_.root) / "journal").string(),
          core->config_.queue_limit));
  core->journal_ =
      std::make_unique<SubmissionJournal>(std::move(journal));
  // Campaigns a previous daemon life was executing when it died (or
  // drained): schedule them first. The executor resumes each from its
  // results database's last cadence checkpoint.
  {
    std::lock_guard<std::mutex> lock(core->mutex_);
    for (Submission& orphan : core->journal_->InState(kStateRunning)) {
      core->LaunchCampaign(std::move(orphan));
    }
  }
  core->scheduler_ = std::thread([ptr = core.get()] {
    ptr->SchedulerLoop();
  });
  return core;
}

ServiceCore::~ServiceCore() {
  Drain();
  if (lock_fd_ >= 0) ::close(lock_fd_);  // releases the flock
}

std::string ServiceCore::CampaignDbDir(const std::string& name) const {
  return (fs::path(config_.root) / "campaigns" / name).string();
}

std::size_t ServiceCore::JobsInUseLocked() const {
  std::size_t used = 0;
  for (const auto& active : active_) {
    if (!active->finished) used += active->jobs_allocated;
  }
  return used;
}

Result<std::uint64_t> ServiceCore::Submit(const std::string& config_text) {
  ASSIGN_OR_RETURN(const SubmissionInfo info,
                   InspectSubmission(config_text));
  std::unique_lock<std::mutex> lock(mutex_);
  if (draining_) {
    return FailedPreconditionError("daemon is draining; resubmit later");
  }
  ASSIGN_OR_RETURN(const std::uint64_t id,
                   journal_->Submit(info.name, config_text, info.jobs));
  lock.unlock();
  wake_.notify_all();
  return id;
}

Result<SubmissionStatus> ServiceCore::GetStatus(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ASSIGN_OR_RETURN(Submission submission, journal_->Find(id));
  SubmissionStatus status;
  status.submission = std::move(submission);
  for (const auto& active : active_) {
    if (active->submission.id != id || active->finished) continue;
    status.active = true;
    status.jobs_allocated = active->jobs_allocated;
    status.experiments_done = active->progress.experiments_done;
    status.experiments_total = active->progress.experiments_total;
    status.faults_injected = active->progress.faults_injected;
  }
  return status;
}

std::vector<SubmissionStatus> ServiceCore::List() const {
  std::vector<SubmissionStatus> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (Submission& submission : journal_->All()) {
    SubmissionStatus status;
    status.submission = std::move(submission);
    for (const auto& active : active_) {
      if (active->submission.id != status.submission.id ||
          active->finished) {
        continue;
      }
      status.active = true;
      status.jobs_allocated = active->jobs_allocated;
      status.experiments_done = active->progress.experiments_done;
      status.experiments_total = active->progress.experiments_total;
      status.faults_injected = active->progress.faults_injected;
    }
    out.push_back(std::move(status));
  }
  return out;
}

Status ServiceCore::Cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& active : active_) {
    if (active->submission.id != id || active->finished) continue;
    // Running: stop at the next experiment boundary. The campaign
    // thread journals "cancelled" once the runner returns.
    active->cancelled = true;
    active->controller.Stop();
    return Status::Ok();
  }
  ASSIGN_OR_RETURN(const Submission submission, journal_->Find(id));
  if (submission.state != kStateQueued) {
    return FailedPreconditionError("submission " + std::to_string(id) +
                                   " is " + submission.state);
  }
  return journal_->MarkCancelled(id);
}

Status ServiceCore::Pause(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& active : active_) {
    if (active->submission.id != id || active->finished) continue;
    active->controller.Pause();
    return Status::Ok();
  }
  return FailedPreconditionError("submission " + std::to_string(id) +
                                 " is not running");
}

Status ServiceCore::Unpause(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& active : active_) {
    if (active->submission.id != id || active->finished) continue;
    active->controller.Resume();
    return Status::Ok();
  }
  return FailedPreconditionError("submission " + std::to_string(id) +
                                 " is not running");
}

void ServiceCore::LaunchCampaign(Submission submission) {
  // Caller holds mutex_. Allocation: what the campaign asked for,
  // capped per-campaign and by what the fleet has free right now. The
  // allocation can differ between daemon lives — worker count never
  // affects the results database bytes.
  auto active = std::make_unique<ActiveCampaign>();
  active->submission = std::move(submission);
  // Saturating: orphan resumes at Start() can oversubscribe the fleet
  // (every recovered campaign gets at least one job), so `used` may
  // already exceed the budget.
  const std::size_t used = JobsInUseLocked();
  const std::size_t available =
      used >= config_.fleet_workers ? 0 : config_.fleet_workers - used;
  active->jobs_allocated = std::max<std::size_t>(
      1, std::min({active->submission.jobs, config_.max_campaign_jobs,
                   std::max<std::size_t>(1, available)}));
  ActiveCampaign* raw = active.get();
  active_.push_back(std::move(active));
  raw->thread = std::thread([this, raw] { RunCampaignThread(raw); });
}

void ServiceCore::RunCampaignThread(ActiveCampaign* active) {
  ExecutionRequest request;
  request.db_dir = CampaignDbDir(active->submission.name);
  request.config_text = active->submission.config_text;
  request.jobs = active->jobs_allocated;
  request.controller = &active->controller;
  request.progress = [this, active](core::ProgressInfo info) {
    std::lock_guard<std::mutex> lock(mutex_);
    active->progress = std::move(info);
  };
  const auto summary = ExecuteSubmission(request);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Drained: the journal row stays "running" so the next daemon life
    // resumes it. Anything journalled here is one committed transition.
    if (!active->controller.drain_requested()) {
      Status journalled = Status::Ok();
      if (!summary.ok()) {
        journalled = journal_->MarkFailed(active->submission.id,
                                          summary.status().ToString());
      } else if (active->cancelled) {
        journalled = journal_->MarkCancelled(active->submission.id);
      } else {
        journalled = journal_->MarkCompleted(active->submission.id);
      }
      (void)journalled;  // journal errors must not tear down the fleet
    }
    active->finished = true;
  }
  wake_.notify_all();
}

void ServiceCore::SchedulerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!draining_) {
    // Reap finished campaign threads so their fleet workers free up.
    for (auto it = active_.begin(); it != active_.end();) {
      if ((*it)->finished && (*it)->thread.joinable()) {
        std::thread finished = std::move((*it)->thread);
        lock.unlock();
        finished.join();
        lock.lock();
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    // Claim while workers are free. Each claim is one committed journal
    // transition; a crash right after it resumes the campaign next life.
    while (!draining_ && JobsInUseLocked() < config_.fleet_workers) {
      auto claimed = journal_->ClaimNext();
      if (!claimed.ok() || !claimed->has_value()) break;
      LaunchCampaign(std::move(**claimed));
    }
    wake_.wait_for(lock, 20ms);
  }
}

void ServiceCore::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drained_) return;
    draining_ = true;
    for (const auto& active : active_) {
      if (!active->finished) active->controller.Drain();
    }
  }
  wake_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // The scheduler has exited; campaign threads finish at their next
  // experiment boundary.
  for (const auto& active : active_) {
    if (active->thread.joinable()) active->thread.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  active_.clear();
  drained_ = true;
}

// ---------------------------------------------------------------------------
// ServiceServer
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ServiceServer>> ServiceServer::Start(
    ServiceCore* core, const std::string& socket_path,
    std::function<void()> on_drain) {
  std::unique_ptr<ServiceServer> server(
      new ServiceServer(core, std::move(on_drain)));
  ASSIGN_OR_RETURN(server->listener_, UnixSocket::Listen(socket_path));
  server->accept_thread_ = std::thread([ptr = server.get()] {
    ptr->AcceptLoop();
  });
  return server;
}

ServiceServer::~ServiceServer() { Shutdown(); }

void ServiceServer::Shutdown() {
  if (shutdown_.exchange(true)) return;
  // Wake the accept thread, and close the fd only once it has left
  // accept(): closing first races its read of the fd (and could hand
  // the number to an unrelated open in between).
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    connection->socket->Shutdown();  // wake a RecvFrame-blocked thread
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void ServiceServer::AcceptLoop() {
  while (!shutdown_) {
    // Reap before blocking so a burst of short-lived clients (status
    // polls, benches) frees its fds and threads as the next client
    // arrives instead of accumulating for the daemon's lifetime.
    ReapFinishedConnections();
    int accept_errno = 0;
    auto connection = listener_.Accept(&accept_errno);
    if (!connection.ok()) {
      if (shutdown_) break;  // Shutdown() shut the listener down
      // Out of fds (EMFILE/ENFILE) or kernel buffers: transient. Back
      // off — reaping above frees fds — and keep serving; a daemon
      // that stops accepting forever over a poll flood is dead to its
      // clients while its campaigns still run.
      if (accept_errno == EMFILE || accept_errno == ENFILE ||
          accept_errno == ENOBUFS || accept_errno == ENOMEM) {
        std::this_thread::sleep_for(10ms);
        continue;
      }
      break;  // the listener itself is broken
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) break;
    auto entry = std::make_unique<Connection>();
    entry->socket = std::make_shared<UnixSocket>(std::move(*connection));
    Connection* raw = entry.get();
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
    connections_.push_back(std::move(entry));
  }
}

void ServiceServer::ReapFinishedConnections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock; `done` means the thread is past its last
  // shared access, so these joins return immediately.
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void ServiceServer::ServeConnection(Connection* connection) {
  // One request frame -> one (or, for watch, many) response frames.
  // Any client death — clean close, mid-frame kill — just ends this
  // loop; the campaigns it submitted or watched keep running.
  const UnixSocket& socket = *connection->socket;
  while (!shutdown_) {
    auto frame = socket.RecvFrame();
    if (!frame.ok()) break;
    const std::string reply = HandleFrame(*frame, socket);
    if (!reply.empty() && !socket.SendFrame(reply).ok()) break;
  }
  // Close eagerly so the fd frees now, not at reap time. Skipped during
  // shutdown: Shutdown() is walking the list calling socket->Shutdown()
  // and close would race the fd out from under it.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!shutdown_) connection->socket->Close();
  }
  connection->done = true;
}

std::string ServiceServer::HandleFrame(const std::string& frame,
                                       const UnixSocket& connection) {
  auto request = ParseRequest(frame);
  if (!request.ok()) return FormatError(request.status());

  if (request->verb == "ping") return FormatOk("pong");

  if (request->verb == "submit") {
    auto id = core_->Submit(request->body);
    if (!id.ok()) return FormatError(id.status());
    return FormatOk("id " + std::to_string(*id));
  }

  if (request->verb == "status") {
    if (request->has_id) {
      auto status = core_->GetStatus(request->id);
      if (!status.ok()) return FormatError(status.status());
      return FormatOk(StrFormat(
          "%llu %s %s %zu/%zu jobs=%zu",
          static_cast<unsigned long long>(status->submission.id),
          status->submission.name.c_str(),
          status->submission.state.c_str(), status->experiments_done,
          status->experiments_total, status->jobs_allocated));
    }
    std::string listing;
    for (const SubmissionStatus& status : core_->List()) {
      listing += StrFormat(
          "%llu %s %s %zu/%zu jobs=%zu\n",
          static_cast<unsigned long long>(status.submission.id),
          status.submission.name.c_str(),
          status.submission.state.c_str(), status.experiments_done,
          status.experiments_total, status.jobs_allocated);
    }
    return FormatOk(listing.empty() ? "empty" : "\n" + listing);
  }

  if (request->verb == "cancel") {
    if (!request->has_id) return FormatError(InvalidArgumentError("cancel <id>"));
    const Status status = core_->Cancel(request->id);
    return status.ok() ? FormatOk("cancelling") : FormatError(status);
  }
  if (request->verb == "pause") {
    if (!request->has_id) return FormatError(InvalidArgumentError("pause <id>"));
    const Status status = core_->Pause(request->id);
    return status.ok() ? FormatOk("paused") : FormatError(status);
  }
  if (request->verb == "unpause") {
    if (!request->has_id) {
      return FormatError(InvalidArgumentError("unpause <id>"));
    }
    const Status status = core_->Unpause(request->id);
    return status.ok() ? FormatOk("running") : FormatError(status);
  }

  if (request->verb == "watch") {
    if (!request->has_id) return FormatError(InvalidArgumentError("watch <id>"));
    // Stream progress until the journal state is terminal. Errors on
    // the connection just end the stream; the campaign is unaffected.
    for (;;) {
      auto status = core_->GetStatus(request->id);
      if (!status.ok()) return FormatError(status.status());
      const std::string& state = status->submission.state;
      if (state != kStateQueued && state != kStateRunning) {
        return "end " + state;
      }
      if (!connection
               .SendFrame(StrFormat("progress %zu %zu %zu",
                                    status->experiments_done,
                                    status->experiments_total,
                                    status->faults_injected))
               .ok()) {
        return std::string();
      }
      std::this_thread::sleep_for(50ms);
      if (shutdown_) return std::string();
    }
  }

  if (request->verb == "drain") {
    if (on_drain_) on_drain_();
    return FormatOk("draining");
  }

  return FormatError(
      InvalidArgumentError("unknown verb '" + request->verb + "'"));
}

}  // namespace goofi::service
