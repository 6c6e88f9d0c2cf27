// goofi_serve: the campaign-as-a-service daemon. Accepts campaign
// submissions over a local Unix-domain socket, queues them in a
// crash-safe WAL-backed journal, and multiplexes them over a shared
// worker fleet (src/service/server.h).
//
//   goofi_serve [--config FILE.ini] [--root DIR] [--socket PATH]
//               [--fleet N] [--queue N] [--max-jobs N]
//
// --config reads a [service] deployment ini (lintable with goofi_lint,
// e.g. campaigns/serve_fleet.ini); later flags override its values.
//
// Shutdown semantics:
//   SIGTERM/SIGINT  graceful drain — every active campaign stops at its
//                   next experiment boundary, nothing past the last
//                   cadence commit is written, exit 0. The journal keeps
//                   drained campaigns as "running".
//   SIGKILL         nothing runs, and nothing needs to: the next start
//                   replays the journal and resumes every in-flight
//                   campaign from its results database's last commit.
// Either way a restarted daemon finishes each campaign byte-identical
// to an uninterrupted run.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>

#include <fstream>
#include <sstream>

#include "core/campaign.h"
#include "core/supervision.h"
#include "service/server.h"
#include "util/config.h"

namespace {

using namespace goofi;

// Apply a [service] deployment ini to `config`/`socket_path`. Flags
// given after --config still win (they are parsed later in the loop).
bool LoadConfigFile(const char* path, service::ServiceConfig* config,
                    std::string* socket_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "goofi_serve: cannot read %s\n", path);
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = Config::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "goofi_serve: %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  const ConfigSection* section = parsed->FindSection("service");
  if (section == nullptr) {
    std::fprintf(stderr, "goofi_serve: %s has no [service] section\n", path);
    return false;
  }
  config->root = section->GetStringOr("root", config->root);
  *socket_path = section->GetStringOr("socket", *socket_path);
  for (const auto& [key, count] :
       {std::pair<const char*, std::size_t*>{"fleet_workers",
                                             &config->fleet_workers},
        {"queue_limit", &config->queue_limit},
        {"max_campaign_jobs", &config->max_campaign_jobs}}) {
    const auto parsed = core::ServiceCount(*section, key, *count);
    if (!parsed.ok()) {
      std::fprintf(stderr, "goofi_serve: %s: %s\n", path,
                   parsed.status().ToString().c_str());
      return false;
    }
    *count = *parsed;
  }
  return true;
}

// The count a --fleet, --queue or --max-jobs flag sets; null for any
// other argument.
std::size_t* CountFlag(const char* flag, service::ServiceConfig* config) {
  if (std::strcmp(flag, "--fleet") == 0) return &config->fleet_workers;
  if (std::strcmp(flag, "--queue") == 0) return &config->queue_limit;
  if (std::strcmp(flag, "--max-jobs") == 0) return &config->max_campaign_jobs;
  return nullptr;
}

// Async-signal-safe shutdown request; the main loop polls it.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

int Fail(const Status& status) {
  std::fprintf(stderr, "goofi_serve: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServiceConfig config;
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      if (!LoadConfigFile(argv[++i], &config, &socket_path)) return 1;
    } else if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      config.root = argv[++i];
    } else if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (std::size_t* count = CountFlag(argv[i], &config);
               count != nullptr && i + 1 < argc) {
      // The [service] keys' rule: a bad value fails boot, naming the flag.
      const auto parsed = core::ParseServiceCount(argv[i], argv[i + 1]);
      if (!parsed.ok()) return Fail(parsed.status());
      *count = *parsed;
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: goofi_serve [--config FILE.ini] [--root DIR] "
                   "[--socket PATH] [--fleet N] [--queue N] "
                   "[--max-jobs N]\n");
      return 1;
    }
  }
  if (config.root.empty()) {
    std::fprintf(stderr, "goofi_serve: --root is required "
                         "(flag or [service] root)\n");
    return 1;
  }
  if (config.max_campaign_jobs > config.fleet_workers) {
    config.max_campaign_jobs = config.fleet_workers;
  }
  if (socket_path.empty()) {
    socket_path =
        (std::filesystem::path(config.root) / "goofi_serve.sock").string();
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  auto core = service::ServiceCore::Start(config);
  if (!core.ok()) return Fail(core.status());
  auto server = service::ServiceServer::Start(
      core->get(), socket_path, [] { g_shutdown_requested = 1; });
  if (!server.ok()) return Fail(server.status());

  std::printf("goofi_serve: listening on %s (fleet %zu, queue %zu, "
              "max %zu jobs/campaign)\n",
              socket_path.c_str(), config.fleet_workers, config.queue_limit,
              config.max_campaign_jobs);
  std::fflush(stdout);

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("goofi_serve: draining\n");
  std::fflush(stdout);
  // Order: stop taking connections, then drain the fleet. Drained
  // campaigns stay "running" in the journal for the next life.
  (*server)->Shutdown();
  (*core)->Drain();
  // Abandoned (wedged) target instances get a bounded grace period.
  if (!core::WaitForAbandonedTargets(std::chrono::milliseconds(10000))) {
    std::fprintf(stderr,
                 "goofi_serve: %zu abandoned target(s) still in flight\n",
                 core::AbandonedTargetsInFlight());
  }
  std::printf("goofi_serve: drained\n");
  return 0;
}
