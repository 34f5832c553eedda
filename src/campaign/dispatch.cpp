#include "campaign/dispatch.hpp"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

extern char** environ;

namespace adaptviz {
namespace {

using Clock = std::chrono::steady_clock;

std::string sanitize_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Worker scratch dirs live under the output dir as `.tmp-<label>`; a
/// killed worker leaves one behind, so the coordinator sweeps them.
void remove_scratch_dirs(const std::string& dir) {
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(".tmp-", 0) == 0) std::filesystem::remove_all(e.path(), ec);
  }
}

/// Writes of task lines to a dead worker must come back as EPIPE, not a
/// process-killing signal.
class SigpipeIgnore {
 public:
  SigpipeIgnore() {
    struct sigaction sa {};
    sa.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &sa, &old_);
  }
  ~SigpipeIgnore() { sigaction(SIGPIPE, &old_, nullptr); }
  SigpipeIgnore(const SigpipeIgnore&) = delete;
  SigpipeIgnore& operator=(const SigpipeIgnore&) = delete;

 private:
  struct sigaction old_ {};
};

/// One worker child process and the coordinator's ends of its
/// stdin/stdout pipes. Destroying it kills and reaps the child, so no
/// path — a crash, a protocol error, an exception — leaks one.
class WorkerProcess {
 public:
  /// Spawns `argv`; throws std::runtime_error when it cannot be started.
  explicit WorkerProcess(const std::vector<std::string>& argv) {
    // Close-on-exec on every end from the start: lanes spawn
    // concurrently, and a child that inherited another lane's write end
    // would hold that lane's pipe open after its own worker died — the
    // lane would never read EOF.
    int to_pipe[2] = {-1, -1};
    int from_pipe[2] = {-1, -1};
    if (pipe2(to_pipe, O_CLOEXEC) != 0 || pipe2(from_pipe, O_CLOEXEC) != 0) {
      const std::string why = strerror(errno);
      for (const int fd : to_pipe) {
        if (fd >= 0) close(fd);
      }
      throw std::runtime_error("dispatch: pipe2() failed: " + why);
    }
    // The dup2 copies on stdin/stdout do not carry close-on-exec; stderr
    // is inherited, so per-run log lines reach the coordinator's
    // terminal.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_pipe[1], STDOUT_FILENO);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    // spawnp: the coordinator binary may have been invoked as a bare
    // command (argv[0] with no slash), which needs the PATH search.
    const int rc = posix_spawnp(&pid_, args[0], &actions, nullptr,
                                args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_pipe[0]);
    close(from_pipe[1]);
    to_fd_ = to_pipe[1];
    from_fd_ = from_pipe[0];
    if (rc != 0) {
      close_pipes();
      throw std::runtime_error("dispatch: cannot spawn worker '" + argv[0] +
                               "': " + strerror(rc));
    }
  }

  ~WorkerProcess() {
    close_pipes();
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  WorkerProcess(const WorkerProcess&) = delete;
  WorkerProcess& operator=(const WorkerProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }

  /// False when the worker is gone (EPIPE).
  bool send(const std::string& line) {
    return write(to_fd_, line.data(), line.size()) ==
           static_cast<ssize_t>(line.size());
  }

  /// Blocks for one '\n'-terminated line (returned without it); false at
  /// EOF. One byte per read(): nothing is read ahead, so no buffer
  /// outlives the call.
  bool read_line(std::string& line) {
    line.clear();
    char c = 0;
    while (true) {
      const ssize_t n = read(from_fd_, &c, 1);
      if (n == 1) {
        if (c == '\n') return true;
        line.push_back(c);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
  }

  /// Clean shutdown: EXIT, then wait for the worker to exit 0.
  void shutdown() {
    send("EXIT\n");
    close_pipes();
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  bool said_hello = false;

 private:
  void close_pipes() {
    if (to_fd_ >= 0) close(to_fd_);
    if (from_fd_ >= 0) close(from_fd_);
    to_fd_ = from_fd_ = -1;
  }

  pid_t pid_ = -1;
  int to_fd_ = -1;    // coordinator -> worker stdin
  int from_fd_ = -1;  // worker stdout -> coordinator
};

class Coordinator {
 public:
  Coordinator(std::vector<std::string> worker_command,
              const DispatchOptions& options, std::string campaign_path)
      : worker_command_(std::move(worker_command)),
        options_(options),
        campaign_path_(std::move(campaign_path)) {}

  DispatchResult run() {
    const CampaignSpec spec = load_campaign(campaign_path_);
    runs_ = spec.expand();

    std::filesystem::create_directories(options_.output_dir);
    remove_scratch_dirs(options_.output_dir);
    manifest_path_ =
        options_.output_dir + "/" + CampaignManifest::filename();
    std::vector<CampaignRunRecord> records(runs_.size());
    const std::vector<std::size_t> todo = load_or_reset_manifest(spec, records);

    // One lane per worker process, and never more lanes than open cells.
    const int workers = options_.workers > 0 ? options_.workers : spec.workers;
    lanes_ = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(std::max(1, workers)), todo.size()));

    DispatchResult result;
    {
      SigpipeIgnore sigpipe_guard;
      result.records = run_campaign_cells(
          std::move(records), todo, lanes_, options_,
          [this](std::size_t i, std::mutex& emit_mutex) {
            return run_cell(i, emit_mutex);
          });
      for (const std::unique_ptr<WorkerProcess>& w : idle_) w->shutdown();
      idle_.clear();
    }

    remove_scratch_dirs(options_.output_dir);
    manifest_.save(manifest_path_);
    obs::save_json(options_.output_dir + "/dispatch_metrics.json",
                   obs_.metrics().snapshot(), {});
    result.resumed = runs_.size() - todo.size();
    result.executed = todo.size();
    result.metrics = obs_.metrics().snapshot();
    return result;
  }

 private:
  // ---- resume ----

  /// Fills `records` from the manifest's intact entries when resuming;
  /// returns the cells still to run, in grid order.
  std::vector<std::size_t> load_or_reset_manifest(
      const CampaignSpec& spec, std::vector<CampaignRunRecord>& records) {
    const std::size_t n = runs_.size();
    if (options_.resume) {
      if (auto loaded = CampaignManifest::load(manifest_path_);
          loaded.has_value() && loaded->campaign == spec.name &&
          loaded->grid == n) {
        manifest_ = std::move(*loaded);
      }
    }
    manifest_.campaign = spec.name;
    manifest_.grid = n;

    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = manifest_.entries.find(i);
      // Failed rows always re-run.
      if (it != manifest_.entries.end() && !it->second.record.failed &&
          it->second.record.label == runs_[i].label &&
          entry_output_intact(it->second, options_.output_dir)) {
        records[i] = it->second.record;
      } else {
        todo.push_back(i);
      }
    }
    if (const std::size_t resumed = n - todo.size(); resumed > 0) {
      obs_.metrics().counter("dispatch.runs_resumed").add(
          static_cast<std::int64_t>(resumed));
      log(LogLevel::kInfo, "dispatch", "resume: %zu of %zu runs intact",
          resumed, n);
    }
    return todo;
  }

  // ---- workers ----

  /// An idle worker, or a new one. The first `lanes_` spawns are free;
  /// each later one replaces a lost worker and spends the respawn budget.
  /// nullptr once the budget is spent.
  std::unique_ptr<WorkerProcess> acquire() {
    int n = 0;
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<WorkerProcess> w = std::move(idle_.back());
        idle_.pop_back();
        return w;
      }
      if (spawned_ >= lanes_) {
        if (respawns_used_ >= options_.worker_respawn_budget) return nullptr;
        ++respawns_used_;
      }
      n = spawned_++;
    }
    std::vector<std::string> argv = worker_command_;
    argv.insert(argv.end(),
                {"--worker", campaign_path_, options_.output_dir});
    if (!options_.write_per_run_csvs) argv.push_back("--no-per-run-csvs");
    if (options_.run_log_level < LogLevel::kError) argv.push_back("--verbose");
    if (n < lanes_ && n == options_.crash_inject_worker) {
      argv.push_back("--crash-next-task");
    }
    obs_.metrics().counter("dispatch.workers_spawned").add(1);
    return std::make_unique<WorkerProcess>(argv);
  }

  void release(std::unique_ptr<WorkerProcess> w) {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    idle_.push_back(std::move(w));
  }

  // ---- one cell ----

  /// Runs cell `index` on a borrowed worker. A worker that dies or breaks
  /// protocol is reaped; the task goes to a replacement after the
  /// backoff, up to max_task_attempts. The outcome is upserted into the
  /// manifest under the emit lock.
  CampaignRunRecord run_cell(std::size_t index, std::mutex& emit_mutex) {
    ManifestEntry entry;
    entry.index = index;
    Rng jitter(options_.seed + index);
    for (int attempt = 1;; ++attempt) {
      std::unique_ptr<WorkerProcess> worker = acquire();
      if (worker == nullptr) {
        entry.record = failed_row(index, "worker respawn budget exhausted");
        break;
      }
      if (attempt > 1) {
        obs_.metrics().counter("dispatch.tasks_redispatched").add(1);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            backoff(options_.retry, attempt - 1, jitter).seconds()));
      }
      std::string why;
      if (std::optional<ManifestEntry> row = exchange(*worker, index, why)) {
        entry = std::move(*row);
        release(std::move(worker));
        break;
      }
      log(LogLevel::kWarn, "dispatch", "worker pid %d lost (%s)",
          static_cast<int>(worker->pid()), why.c_str());
      obs_.metrics().counter("dispatch.worker_failures").add(1);
      worker.reset();
      if (attempt >= options_.max_task_attempts) {
        entry.record = failed_row(
            index, "worker crashed (" + std::to_string(attempt) + " attempts)");
        break;
      }
    }
    std::lock_guard<std::mutex> lock(emit_mutex);
    manifest_.upsert(entry);
    manifest_.save(manifest_path_);
    return entry.record;
  }

  /// Sends TASK `index` (after reading a fresh worker's HELLO) and reads
  /// the worker's ROW for it. nullopt with `why` set when the worker died
  /// or broke protocol; throws when the HELLO shows a different grid.
  std::optional<ManifestEntry> exchange(WorkerProcess& w, std::size_t index,
                                        std::string& why) {
    std::string line;
    const auto protocol_error = [&why, &line] {
      why = line.rfind("ERR ", 0) == 0 ? line : "unexpected protocol line";
      return std::nullopt;
    };
    if (!w.said_hello) {
      if (!w.read_line(line)) {
        why = "eof";
        return std::nullopt;
      }
      if (line.rfind("HELLO ", 0) != 0) return protocol_error();
      const std::size_t at = line.find("grid=");
      const auto grid =
          at == std::string::npos
              ? std::nullopt
              : wire::parse_int(std::string_view(line).substr(at + 5));
      if (grid != static_cast<std::int64_t>(runs_.size())) {
        throw std::runtime_error(
            "dispatch: worker expanded a different grid (" + line + " vs " +
            std::to_string(runs_.size()) + " runs) — campaign file drift");
      }
      w.said_hello = true;
    }

    if (!w.send("TASK " + std::to_string(index) + "\n")) {
      why = "task write failed";
      return std::nullopt;
    }
    obs_.metrics().counter("dispatch.tasks_dispatched").add(1);
    const Clock::time_point sent = Clock::now();
    if (!w.read_line(line)) {
      why = "eof";
      return std::nullopt;
    }
    if (line.rfind("ROW ", 0) != 0) return protocol_error();
    ManifestEntry entry;
    try {
      entry = decode_manifest_entry(line.substr(4));
    } catch (const std::exception& e) {
      why = e.what();
      return std::nullopt;
    }
    if (entry.index != index) {
      why = "ROW for another task";
      return std::nullopt;
    }
    obs_.metrics()
        .histogram("dispatch.task_latency_s")
        .observe(std::chrono::duration<double>(Clock::now() - sent).count());
    obs_.metrics().counter("dispatch.tasks_completed").add(1);
    return entry;
  }

  CampaignRunRecord failed_row(std::size_t index, const std::string& reason) {
    CampaignRunRecord rec = make_run_record(runs_[index]);
    rec.failed = true;
    rec.error = "dispatch: " + reason;
    obs_.metrics().counter("dispatch.tasks_failed").add(1);
    return rec;
  }

  std::vector<std::string> worker_command_;
  const DispatchOptions& options_;
  std::string campaign_path_;
  std::string manifest_path_;

  std::vector<CampaignRun> runs_;
  CampaignManifest manifest_;  // guarded by the loop's emit lock
  obs::Observability obs_;

  int lanes_ = 0;
  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<WorkerProcess>> idle_;  // guarded by pool_mutex_
  int spawned_ = 0;                                   // guarded by pool_mutex_
  int respawns_used_ = 0;                             // guarded by pool_mutex_
};

}  // namespace

CampaignDispatcher::CampaignDispatcher(std::vector<std::string> worker_command,
                                       DispatchOptions options)
    : worker_command_(std::move(worker_command)),
      options_(std::move(options)) {
  if (worker_command_.empty()) {
    throw std::invalid_argument("dispatch: worker command must be non-empty");
  }
}

DispatchResult CampaignDispatcher::run(const std::string& campaign_path) {
  Coordinator coordinator(worker_command_, options_, campaign_path);
  return coordinator.run();
}

// ---- worker side ----

int run_dispatch_worker(const WorkerOptions& options, std::istream& in,
                        std::ostream& out) {
  try {
    const CampaignSpec spec = load_campaign(options.campaign_path);
    const std::vector<CampaignRun> runs = spec.expand();
    std::filesystem::create_directories(options.output_dir);
    out << "HELLO v1 grid=" << runs.size() << "\n" << std::flush;

    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line == "EXIT") return 0;
      if (line.rfind("TASK ", 0) != 0) {
        out << "ERR unknown command " << sanitize_line(line) << "\n"
            << std::flush;
        return 2;
      }
      const auto parsed = wire::parse_int(std::string_view(line).substr(5));
      if (!parsed || *parsed < 0 ||
          static_cast<std::size_t>(*parsed) >= runs.size()) {
        out << "ERR bad task index " << sanitize_line(line) << "\n"
            << std::flush;
        return 2;
      }
      if (options.crash_next_task) {
        // Test hook: die the way a crashed worker dies — no unwind, no
        // ROW, pipe snaps shut.
        std::_Exit(42);
      }
      const auto index = static_cast<std::size_t>(*parsed);

      ManifestEntry entry;
      entry.index = index;
      const std::string& label = runs[index].label;
      entry.record = execute_campaign_run(
          runs[index], options.run_log_level,
          [&](const ExperimentResult& result) {
            if (!options.write_per_run_csvs) return;
            // Write into a private scratch dir, then rename each file
            // into place: a worker killed mid-write can never leave a
            // truncated CSV under a real result name.
            const std::string scratch = options.output_dir + "/.tmp-" + label;
            std::filesystem::remove_all(scratch);
            write_result(result, scratch);
            for (const auto& e :
                 std::filesystem::directory_iterator(scratch)) {
              std::filesystem::rename(
                  e.path(), options.output_dir + "/" +
                                e.path().filename().string());
            }
            std::filesystem::remove_all(scratch);
          });
      if (!entry.record.failed && options.write_per_run_csvs) {
        entry.files = stamp_result_files(label, options.output_dir);
      }
      out << "ROW " << encode_manifest_entry(entry) << "\n" << std::flush;
    }
    return 0;  // EOF from the coordinator is a valid shutdown
  } catch (const std::exception& e) {
    out << "ERR " << sanitize_line(e.what()) << "\n" << std::flush;
    return 2;
  }
}

}  // namespace adaptviz
