// ServiceCore end to end, no sockets: fleet scheduling, backpressure,
// cancellation, and the drain -> restart -> resume cycle whose final
// results databases must match one-shot executor runs byte for byte.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "db/wal.h"
#include "service/executor.h"
#include "service/server.h"
#include "test_util/temp_dir.h"

namespace goofi::service {
namespace {

namespace fs = std::filesystem;

std::string Ini(const std::string& name, int experiments,
                std::size_t jobs = 1) {
  return "[campaign]\nname = " + name +
         "\ntarget = thor_rd\ntechnique = scifi\nworkload = fib\n"
         "experiments = " + std::to_string(experiments) +
         "\nseed = 17\nlocation[] = cpu.regs.*\njobs = " +
         std::to_string(jobs) + "\n";
}

std::map<std::string, std::string> DumpDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    auto bytes = db::wal::ReadFileBytes(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    files[entry.path().filename().string()] = bytes.ok() ? *bytes : "";
  }
  return files;
}

// Poll until the submission reaches a terminal journal state.
Submission AwaitTerminal(ServiceCore& core, std::uint64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    auto status = core.GetStatus(id);
    EXPECT_TRUE(status.ok()) << status.status().ToString();
    if (!status.ok()) return Submission{};
    const std::string& state = status->submission.state;
    if (state == kStateCompleted || state == kStateFailed ||
        state == kStateCancelled) {
      return status->submission;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "submission " << id << " stuck in " << state;
      return status->submission;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Poll until the submission is actively executing on a campaign thread.
void AwaitActive(ServiceCore& core, std::uint64_t id) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  for (;;) {
    auto status = core.GetStatus(id);
    ASSERT_TRUE(status.ok());
    if (status->active) return;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "submission " << id << " never became active";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

class ServiceCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (test_util::ProcessTempDir() / "goofi_service_core_test").string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  ServiceConfig Config_(std::size_t fleet, std::size_t queue) {
    ServiceConfig config;
    config.root = root_;
    config.fleet_workers = fleet;
    config.queue_limit = queue;
    config.max_campaign_jobs = fleet;
    return config;
  }

  std::string root_;
};

TEST_F(ServiceCoreTest, SubmitRunsToCompletion) {
  auto core = ServiceCore::Start(Config_(2, 8));
  ASSERT_TRUE(core.ok()) << core.status().ToString();
  auto id = (*core)->Submit(Ini("c1", 40));
  ASSERT_TRUE(id.ok());
  const Submission done = AwaitTerminal(**core, *id);
  EXPECT_EQ(done.state, kStateCompleted);
  EXPECT_TRUE(fs::exists(
      fs::path((*core)->CampaignDbDir("c1")) / "wal.log"));
}

TEST_F(ServiceCoreTest, RejectsBadIniAndDuplicatesAndFullQueue) {
  auto core = ServiceCore::Start(Config_(1, 2));
  ASSERT_TRUE(core.ok());
  // Not a campaign at all.
  EXPECT_EQ((*core)->Submit("[not_campaign]\n").status().code(),
            ErrorCode::kInvalidArgument);
  // A name that would escape the campaigns/ directory.
  EXPECT_EQ((*core)->Submit("[campaign]\nname = ../evil\n").status().code(),
            ErrorCode::kInvalidArgument);

  auto first = (*core)->Submit(Ini("dup", 2000));
  ASSERT_TRUE(first.ok());
  AwaitActive(**core, *first);
  ASSERT_TRUE((*core)->Pause(*first).ok());  // hold its fleet slot
  EXPECT_EQ((*core)->Submit(Ini("dup", 10)).status().code(),
            ErrorCode::kAlreadyExists);
  // One active + one queued = the queue bound; the third is explicit
  // backpressure, not a silent drop.
  ASSERT_TRUE((*core)->Submit(Ini("q1", 10)).ok());
  EXPECT_EQ((*core)->Submit(Ini("q2", 10)).status().code(),
            ErrorCode::kQueueFull);
  ASSERT_TRUE((*core)->Cancel(*first).ok());
  const Submission cancelled = AwaitTerminal(**core, *first);
  EXPECT_EQ(cancelled.state, kStateCancelled);
}

TEST_F(ServiceCoreTest, CancelQueuedAndRunningSubmissions) {
  auto core = ServiceCore::Start(Config_(1, 8));
  ASSERT_TRUE(core.ok());
  auto running = (*core)->Submit(Ini("runner", 5000));
  ASSERT_TRUE(running.ok());
  AwaitActive(**core, *running);
  ASSERT_TRUE((*core)->Pause(*running).ok());
  // The fleet is saturated, so this one stays queued.
  auto queued = (*core)->Submit(Ini("waiter", 10));
  ASSERT_TRUE(queued.ok());
  ASSERT_TRUE((*core)->Cancel(*queued).ok());
  EXPECT_EQ(AwaitTerminal(**core, *queued).state, kStateCancelled);
  // Cancelling the paused running campaign unblocks and journals it.
  ASSERT_TRUE((*core)->Cancel(*running).ok());
  EXPECT_EQ(AwaitTerminal(**core, *running).state, kStateCancelled);
  // Cancel is not valid from a terminal state.
  EXPECT_EQ((*core)->Cancel(*queued).code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(ServiceCoreTest, SecondDaemonOnTheSameRootIsRejected) {
  auto first = ServiceCore::Start(Config_(1, 4));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // A second daemon would race the first for the journal and the
  // campaign databases; the root lock refuses it outright.
  auto second = ServiceCore::Start(Config_(1, 4));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
  // The lock dies with its owner: a new life starts cleanly.
  first->reset();
  auto next_life = ServiceCore::Start(Config_(1, 4));
  EXPECT_TRUE(next_life.ok()) << next_life.status().ToString();
}

TEST_F(ServiceCoreTest, ServerSurvivesConnectionChurn) {
  auto core = ServiceCore::Start(Config_(1, 4));
  ASSERT_TRUE(core.ok());
  const std::string socket_path =
      (fs::path(root_) / "churn.sock").string();
  auto server = ServiceServer::Start(core->get(), socket_path, nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // A long-lived daemon sees thousands of short-lived clients (status
  // polls, benches). Each finished connection must release its fd and
  // thread — this churns well past the fd budget a leak would tolerate
  // under a tight RLIMIT_NOFILE, and the daemon must still answer.
  for (int i = 0; i < 200; ++i) {
    auto client = UnixSocket::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << "connect " << i << ": "
                             << client.status().ToString();
    ASSERT_TRUE(client->SendFrame("ping").ok());
    auto reply = client->RecvFrame();
    ASSERT_TRUE(reply.ok()) << "ping " << i << ": "
                            << reply.status().ToString();
    EXPECT_EQ(*reply, "ok pong");
  }
}

TEST_F(ServiceCoreTest, MultiplexesCampaignsOverTheFleet) {
  auto core = ServiceCore::Start(Config_(2, 8));
  ASSERT_TRUE(core.ok());
  auto a = (*core)->Submit(Ini("ma", 40));
  auto b = (*core)->Submit(Ini("mb", 40));
  auto c = (*core)->Submit(Ini("mc", 40));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(AwaitTerminal(**core, *a).state, kStateCompleted);
  EXPECT_EQ(AwaitTerminal(**core, *b).state, kStateCompleted);
  EXPECT_EQ(AwaitTerminal(**core, *c).state, kStateCompleted);
}

// The tentpole cycle: drain a busy daemon, start a new life on the same
// root, and require every campaign to finish byte-identical to a
// one-shot executor run of the same ini.
TEST_F(ServiceCoreTest, DrainRestartResumeMatchesOneShot) {
  const std::string ini_a = Ini("ra", 70);
  const std::string ini_b = Ini("rb", 70, /*jobs=*/2);
  std::string dir_a;
  std::string dir_b;
  {
    auto core = ServiceCore::Start(Config_(3, 8));
    ASSERT_TRUE(core.ok());
    auto a = (*core)->Submit(ini_a);
    auto b = (*core)->Submit(ini_b);
    ASSERT_TRUE(a.ok() && b.ok());
    dir_a = (*core)->CampaignDbDir("ra");
    dir_b = (*core)->CampaignDbDir("rb");
    AwaitActive(**core, *a);
    AwaitActive(**core, *b);
    (*core)->Drain();
    EXPECT_TRUE((*core)->draining());
    // Draining daemons refuse new work.
    EXPECT_EQ((*core)->Submit(Ini("late", 10)).status().code(),
              ErrorCode::kFailedPrecondition);
  }
  {
    // The journal still carries both campaigns as "running"; a new life
    // must pick them up without being asked.
    auto core = ServiceCore::Start(Config_(3, 8));
    ASSERT_TRUE(core.ok()) << core.status().ToString();
    EXPECT_EQ(AwaitTerminal(**core, 1).state, kStateCompleted);
    EXPECT_EQ(AwaitTerminal(**core, 2).state, kStateCompleted);
  }

  // Reference one-shot runs of the same inis.
  const std::string ref_a =
      (test_util::ProcessTempDir() / "goofi_service_core_ref_a").string();
  const std::string ref_b =
      (test_util::ProcessTempDir() / "goofi_service_core_ref_b").string();
  fs::remove_all(ref_a);
  fs::remove_all(ref_b);
  ExecutionRequest request;
  request.db_dir = ref_a;
  request.config_text = ini_a;
  ASSERT_TRUE(ExecuteSubmission(request).ok());
  request.db_dir = ref_b;
  request.config_text = ini_b;
  request.jobs = 2;
  ASSERT_TRUE(ExecuteSubmission(request).ok());

  EXPECT_EQ(DumpDirectory(dir_a), DumpDirectory(ref_a));
  EXPECT_EQ(DumpDirectory(dir_b), DumpDirectory(ref_b));
  fs::remove_all(ref_a);
  fs::remove_all(ref_b);
}

}  // namespace
}  // namespace goofi::service
